"""Parallel sweep execution over a process pool.

Every headline experiment is a grid of independent (policy, capacity)
simulations over one shared trace; this module fans those cells out to
worker processes.  Design constraints, in order:

* **Determinism** — results are bit-identical to a serial sweep and come
  back in grid order (the order of the input specs) regardless of which
  worker finishes first.  A pool *starts* the slowest policies' cells
  first (:func:`start_order`, Graham's longest-processing-time rule), so
  no long cell starts last while a worker idles; outcomes are filed by
  cell index, so results, event streams, merged registries and learner
  series never see the start order.  The in-process path
  (``jobs <= 1``) runs cells in grid order.  Policies are constructed
  *inside* the worker from a picklable :class:`CellSpec`, so every cell
  starts from the same seeded state it would have serially.
* **Cheap trace sharing** — the trace is columnarized into three NumPy
  arrays (:class:`~repro.traces.packed.PackedTrace`) and placed in one
  POSIX shared-memory segment; workers map it read-only through the pool
  initializer, so the request stream crosses the process boundary zero
  times (a short descriptor pickles instead).  Platforms without usable
  shared memory fall back to pickling the packed arrays once per worker.
  Workers replay the shared columns directly through the engine's one
  chunked loop, observed and traced cells included: a tracer only pins
  an inlined classic kernel onto the base walker, it never changes the
  trace.
* **Failure containment** — a cell that raises is captured in the worker
  (policy name, capacity and full traceback) and reported after every
  sibling cell has finished; one bad cell never hangs the pool or
  corrupts the others' results.
* **One timeline (opt-in)** — when the driver's observation carries an
  enabled span recorder (``--trace-out``), every cell additionally runs
  under a worker-local :class:`~repro.obs.spans.SpanRecorder`; the span
  dicts ride the existing outcome tuple back (stamped with the worker's
  pid) and are absorbed grid-ordered under the driver's ``sweep.run``
  span, so a parallel run merges into one coherent multi-process
  timeline with one Perfetto lane per worker.
"""

from __future__ import annotations

import traceback
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.obs import NULL_OBS, MemoryRecorder, MetricsRegistry, Observation
from repro.obs.learner import LearnerTelemetry
from repro.obs.spans import SpanRecorder
from repro.obs.trace import TraceConfig
from repro.sim.engine import check_replay_args, simulate
from repro.sim.metrics import SimulationResult, grid_order
from repro.traces.packed import (
    PackedTrace,
    SharedTraceBuffers,
    SharedTraceDescriptor,
    attach_shared_trace,
)
from repro.traces.request import Trace


#: Every registered policy name, slowest sweep cell first: the order in
#: which a pool starts cells (:func:`start_order`).  Ranked by the sum of
#: each policy's two cell ``runtime_seconds`` in one serial pass over the
#: cdn-a stand-in (scale 0.05, seed 1000, 256 and 512 GB); the table and
#: the command are in docs/PERFORMANCE.md.  ``tests/sim/test_parallel.py``
#: checks that it names exactly ``known_policies()``, so a newly
#: registered policy must be ranked here.
SLOWEST_FIRST = (
    "lrb", "n-lhr", "d-lhr", "lhr", "hyperbolic", "lhd", "lfo", "tinylfu",
    "w-tinylfu", "hawkeye", "gdsf", "arc", "random", "s4lru", "adaptsize",
    "gds", "lfu", "b-lru", "secondhit", "lru-4", "lru-2", "fifo",
    "no-cache", "lfu-da", "lru",
)

_COST_RANK = {name: rank for rank, name in enumerate(SLOWEST_FIRST)}


__all__ = [
    "CellFailure",
    "CellSpec",
    "PackedTrace",  # re-exported; the class lives in repro.traces.packed
    "SLOWEST_FIRST",
    "SweepCellError",
    "run_sweep",
    "start_order",
]


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell: which policy to build, at what capacity, and how.

    ``kwargs`` is stored as a sorted item tuple so specs pickle
    deterministically and never depend on dict insertion order.
    ``index`` is the cell's position in the grid; results are returned
    sorted by it.
    """

    policy: str
    capacity: int
    kwargs: tuple[tuple[str, object], ...] = ()
    index: int = -1

    @classmethod
    def make(
        cls,
        policy: str,
        capacity: int,
        kwargs: dict | None = None,
        index: int = -1,
    ) -> "CellSpec":
        items = tuple(sorted((kwargs or {}).items()))
        return cls(policy=policy, capacity=int(capacity), kwargs=items, index=index)

    def build(self):
        """Instantiate the policy (runs inside the worker)."""
        from repro.sim.runner import build_policy

        return build_policy(self.policy, self.capacity, **dict(self.kwargs))


def start_order(specs: Sequence[CellSpec]) -> list[CellSpec]:
    """``specs`` in the order a pool starts them: the slowest policy first
    (by :data:`SLOWEST_FIRST`), grid order (``CellSpec.index``) among
    cells of one policy.  A policy not in the ranking
    has no measured cost, so it is treated as the slowest: started first,
    it cannot become the tail."""
    return sorted(
        specs, key=lambda spec: (_COST_RANK.get(spec.policy.lower(), -1), spec.index)
    )


@dataclass(frozen=True)
class CellFailure:
    """A captured worker-side exception for one cell."""

    index: int
    policy: str
    capacity: int
    error: str
    traceback: str

    def describe(self) -> str:
        return (
            f"cell ({self.policy!r}, capacity={self.capacity}) failed: "
            f"{self.error}\n{self.traceback}"
        )


class SweepCellError(RuntimeError):
    """One or more sweep cells raised.

    Raised only after every sibling cell has run to completion;
    ``results`` holds the surviving cells' results (``None`` at the
    failed indices) and ``failures`` the captured errors.
    """

    def __init__(
        self,
        failures: Sequence[CellFailure],
        results: Sequence[SimulationResult | None] = (),
    ):
        self.failures = list(failures)
        self.results = list(results)
        summary = "; ".join(
            f"({f.policy!r}, capacity={f.capacity}): {f.error}" for f in self.failures
        )
        details = "\n\n".join(f.describe() for f in self.failures)
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed — {summary}\n\n{details}"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: The shared packed trace, installed once per worker by the pool
#: initializer (or pointed at the caller's trace, packed once, for
#: in-process execution).
_WORKER_TRACE: PackedTrace | None = None

#: The worker's handle on the shared-memory segment; kept alive for the
#: worker's lifetime because dropping it invalidates the mapped columns.
_WORKER_SHM = None


def _init_worker(packed: PackedTrace) -> None:
    global _WORKER_TRACE
    _WORKER_TRACE = packed


def _init_worker_shared(descriptor: SharedTraceDescriptor) -> None:
    """Pool initializer for the zero-copy path: map the driver's shared
    segment read-only instead of unpickling a trace copy."""
    global _WORKER_SHM
    packed, shm = attach_shared_trace(descriptor)
    _WORKER_SHM = shm
    _init_worker(packed)


#: One worker cell's outcome:
#: ``(index, result, failure, events, registry, spans)``.
#: ``events``/``registry`` are None unless the sweep runs observed;
#: ``spans`` (a list of span dicts recorded in the worker, stamped with
#: the worker's pid) is None unless the sweep records a timeline.
CellOutcome = tuple[
    int,
    SimulationResult | None,
    "CellFailure | None",
    "list[dict] | None",
    "MetricsRegistry | None",
    "list[dict] | None",
]


def _run_cell(
    spec: CellSpec,
    window_requests: int,
    warmup_requests: int,
    observe: bool,
    trace_config: TraceConfig | None = None,
    record_spans: bool = False,
    record_learner: bool = False,
) -> CellOutcome:
    """Simulate one cell against the worker's shared trace.

    Never raises: failures come back as data so one exploding policy
    cannot poison the pool or its sibling cells.  When ``observe`` is
    set, the cell runs with a worker-local recorder and registry whose
    contents ship back with the result for the driver to merge — that is
    what keeps parallel runs as observable as serial ones.  When
    ``trace_config`` is set, the cell runs under a worker-local
    :class:`~repro.obs.trace.DecisionTracer` that ships back attached to
    the result (``result.decision_trace``) — results are grid-ordered,
    so the per-cell traces merge back exactly like recorders do.

    When ``record_spans`` is set, the cell runs with a local
    :class:`~repro.obs.spans.SpanRecorder` — created here, *after* any
    fork, so its spans carry the worker's real pid — wrapping the replay
    in one ``cat="cell"`` span (plus the engine/LHR spans beneath it);
    the recorded dicts ride the outcome tuple back for the driver to
    absorb into one multi-process timeline.  Span recording alone rides a
    sidecars-only observation (``enabled`` False), so the cell ships no
    events or metrics.

    When ``record_learner`` is set, the cell runs with its own
    :class:`~repro.obs.learner.LearnerTelemetry` sink; the engine stamps
    the per-window series onto ``result.learner``, which rides the
    outcome's result slot back for the driver to absorb grid-ordered.
    Like spans, learner telemetry alone ships no events or metrics.
    No observation changes which code a cell runs: only ``trace_config``
    pins the base walker, over an inlined classic kernel.
    """
    span_recorder = SpanRecorder(role="worker") if record_spans else None
    learner = LearnerTelemetry() if record_learner else None
    if observe:
        cell_obs = Observation(
            recorder=MemoryRecorder(),
            registry=MetricsRegistry(),
            spans=span_recorder,
            learner=learner,
        )
    elif record_spans or record_learner:
        cell_obs = Observation.sidecars_only(
            spans=span_recorder, learner=learner
        )
    else:
        cell_obs = NULL_OBS
    cell_span = (
        span_recorder.begin(
            f"{spec.policy}@{spec.capacity}",
            cat="cell",
            cell=spec.index,
            policy=spec.policy,
            capacity=spec.capacity,
        )
        if span_recorder is not None
        else None
    )
    try:
        result = simulate(
            spec.build(),
            _WORKER_TRACE,
            window_requests=window_requests,
            warmup_requests=warmup_requests,
            obs=cell_obs,
            tracer=trace_config.build() if trace_config is not None else None,
        )
        result.cell_index = spec.index
        events = cell_obs.recorder.events if observe else None
        registry = cell_obs.registry if observe else None
        if cell_span is not None:
            span_recorder.end(
                cell_span, hit_ratio=round(result.object_hit_ratio, 6)
            )
        spans = span_recorder.as_dicts() if span_recorder is not None else None
        return spec.index, result, None, events, registry, spans
    except BaseException as exc:  # noqa: BLE001 — must cross the pipe as data
        failure = CellFailure(
            index=spec.index,
            policy=spec.policy,
            capacity=spec.capacity,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
        events = cell_obs.recorder.events if observe else None
        registry = cell_obs.registry if observe else None
        if cell_span is not None:
            span_recorder.end(cell_span, failed=True)
        spans = span_recorder.as_dicts() if span_recorder is not None else None
        return spec.index, None, failure, events, registry, spans


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


def run_sweep(
    trace: Trace | PackedTrace,
    specs: Sequence[CellSpec],
    window_requests: int = 0,
    warmup_requests: int = 0,
    jobs: int = 0,
    mp_context=None,
    obs: Observation = NULL_OBS,
    trace_config: TraceConfig | None = None,
    event_fields: dict | None = None,
) -> list[SimulationResult]:
    """Run every cell of ``specs`` over ``trace``; return grid-ordered results.

    ``jobs <= 1`` executes in-process, in grid order (no pickling, no
    pool), with the exact same failure-capture semantics; ``jobs > 1``
    fans out over a ``ProcessPoolExecutor`` and starts the cells slowest
    policy first (:func:`start_order`), so a long cell does not start
    last and leave the other workers idle.  Either way the returned list
    is ordered by ``CellSpec.index`` and each cell's outcome is
    independent of how the others fared.  Window and warmup settings are
    checked once, before any cell starts
    (:func:`~repro.sim.engine.check_replay_args`).

    When ``obs`` is enabled the sweep emits ``sweep.cell_start`` per cell
    up front, runs every cell under a cell-local recorder/registry, then
    replays the per-cell events and merges the per-cell registries into
    ``obs`` **in grid order** — so the observed stream is identical for
    serial and parallel execution — and finishes each cell with
    ``sweep.cell_done`` or ``sweep.cell_failed``.

    When ``trace_config`` is set, every cell additionally runs under its
    own :class:`~repro.obs.trace.DecisionTracer` built from the config;
    each returned result carries its cell's tracer in
    ``result.decision_trace``, grid-ordered with the results themselves.

    ``event_fields`` stamps extra constant fields onto every event the
    sweep contributes to ``obs`` (cell lifecycle events and the re-merged
    worker streams alike).  The workload lab uses it to tag each sweep of
    a scenario matrix with ``scenario=<name>`` so one recorder stream can
    be sliced per scenario afterwards; ``None`` (the default) emits the
    exact historical stream.
    """
    check_replay_args(len(trace), window_requests, warmup_requests)
    specs = [
        spec if spec.index >= 0 else replace(spec, index=i)
        for i, spec in enumerate(specs)
    ]
    indices = [spec.index for spec in specs]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate cell indices in sweep specs: {indices}")
    if not specs:
        return []

    observing = obs.enabled
    record_spans = obs.spans.enabled
    record_learner = obs.learner.enabled
    tag = dict(event_fields or {})
    if observing:
        for spec in sorted(specs, key=lambda s: s.index):
            obs.emit(
                "sweep.cell_start",
                cell=spec.index,
                policy=spec.policy,
                capacity=spec.capacity,
                **tag,
            )

    sweep_span = (
        obs.spans.begin(
            "sweep.run", cat="sweep", cells=len(specs), jobs=jobs or 1
        )
        if record_spans
        else None
    )
    try:
        if jobs and jobs > 1:
            outcomes = _run_pooled(
                trace, specs, window_requests, warmup_requests, jobs, mp_context,
                observing, trace_config, obs, record_spans, record_learner,
            )
        else:
            outcomes = _run_inline(
                trace, specs, window_requests, warmup_requests, observing,
                trace_config, record_spans, record_learner,
            )

        by_index = {outcome[0]: outcome for outcome in outcomes}
        ordered = [by_index[spec.index] for spec in specs]
        if record_learner:
            # Worker->driver learner merge, grid-ordered: per-cell series
            # are independent and keyed by index, so absorption order
            # cannot change content — serial and parallel sweeps yield
            # identical series.
            for spec in sorted(specs, key=lambda s: s.index):
                result = by_index[spec.index][1]
                if result is not None:
                    obs.learner.absorb(spec.index, result.learner)
        if record_spans:
            # Grid-ordered absorption of cell span batches under the
            # sweep span.  Pooled outcomes arrive pre-absorbed (under
            # ``sweep.gather``, see ``_run_pooled``) with their span slot
            # cleared, so this covers the inline path — and keeps the
            # merged timeline structurally identical either way.
            for spec in sorted(specs, key=lambda s: s.index):
                obs.spans.absorb(by_index[spec.index][5], parent=sweep_span)
        if observing:
            _merge_observations(obs, specs, by_index, tag)
    finally:
        if sweep_span is not None:
            obs.spans.end(sweep_span)
    failures = [outcome[2] for outcome in ordered if outcome[2] is not None]
    results = [outcome[1] for outcome in ordered]
    if failures:
        raise SweepCellError(failures, results)
    return grid_order(results)


def _merge_observations(
    obs: Observation,
    specs: Sequence[CellSpec],
    by_index: dict[int, CellOutcome],
    tag: dict | None = None,
) -> None:
    """Fold per-cell events and registries into the parent, grid-ordered.

    ``tag`` fields (e.g. ``scenario=<name>``) are stamped onto every
    re-emitted event; an empty/None tag reproduces the historical stream
    byte for byte.
    """
    tag = tag or {}
    for spec in sorted(specs, key=lambda s: s.index):
        index, result, failure, events, registry = by_index[spec.index][:5]
        for event in events or ():
            fields = {
                k: v for k, v in event.items() if k not in ("event", "seq")
            }
            obs.emit(event["event"], cell=index, **fields, **tag)
        if registry is not None:
            obs.registry.merge(registry)
        if failure is not None:
            obs.emit(
                "sweep.cell_failed",
                cell=index,
                policy=spec.policy,
                capacity=spec.capacity,
                error=failure.error,
                **tag,
            )
        elif result is not None:
            obs.emit(
                "sweep.cell_done",
                cell=index,
                policy=spec.policy,
                capacity=spec.capacity,
                requests=result.requests,
                hits=result.hits,
                hit_ratio=round(result.object_hit_ratio, 6),
                runtime_seconds=round(result.runtime_seconds, 6),
                **tag,
            )


def _run_inline(
    trace: Trace | PackedTrace,
    specs: Sequence[CellSpec],
    window_requests: int,
    warmup_requests: int,
    observe: bool,
    trace_config: TraceConfig | None = None,
    record_spans: bool = False,
    record_learner: bool = False,
) -> list[CellOutcome]:
    """Serial execution sharing the worker code path (and its capture).
    A ``Trace`` is packed once here, not once per cell."""
    global _WORKER_TRACE
    previous = _WORKER_TRACE
    _WORKER_TRACE = (
        trace if isinstance(trace, PackedTrace) else PackedTrace.from_trace(trace)
    )
    try:
        return [
            _run_cell(
                spec, window_requests, warmup_requests, observe, trace_config,
                record_spans, record_learner,
            )
            for spec in specs
        ]
    finally:
        _WORKER_TRACE = previous


def _run_pooled(
    trace: Trace | PackedTrace,
    specs: Sequence[CellSpec],
    window_requests: int,
    warmup_requests: int,
    jobs: int,
    mp_context,
    observe: bool,
    trace_config: TraceConfig | None = None,
    obs: Observation = NULL_OBS,
    record_spans: bool = False,
    record_learner: bool = False,
) -> list[CellOutcome]:
    """Fan cells out over worker processes; the trace crosses the process
    boundary zero times via shared memory (or once per worker as pickled
    arrays where shared memory is unavailable).

    Cells are submitted in :func:`start_order`, slowest policy first, so
    the pool's FIFO queue hands the costliest cells out first; outcomes
    are collected as they complete and ``run_sweep`` files them by cell
    index.

    With ``record_spans``, the driver brackets the submit loop in a
    ``sweep.scatter`` span (its ``order`` attribute lists the cell
    indices in start order) and the result drain in ``sweep.gather`` —
    the driver-lane complements to the workers' per-cell spans.

    The driver owns the shared segment: the ``finally`` below releases it
    on normal completion, worker death (``BrokenProcessPool``) and
    ``KeyboardInterrupt`` alike — ``tests/sim/test_parallel.py`` checks
    :func:`~repro.traces.packed.live_segment_names` stays empty.
    """
    packed = trace if isinstance(trace, PackedTrace) else PackedTrace.from_trace(trace)
    workers = min(jobs, len(specs))
    outcomes: list[CellOutcome] = []
    shared = None
    try:
        shared = SharedTraceBuffers.create(packed)
    except (OSError, ValueError):
        shared = None  # no usable /dev/shm — ship the arrays by pickle
    if shared is not None:
        initializer = _init_worker_shared
        payload = shared.descriptor
    else:
        initializer = _init_worker
        payload = packed
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=initializer,
            initargs=(payload,),
        ) as pool:
            started = start_order(specs)
            scatter = (
                obs.spans.begin(
                    "sweep.scatter",
                    cat="sweep",
                    cells=len(specs),
                    workers=workers,
                    order=[spec.index for spec in started],
                )
                if record_spans
                else None
            )
            futures = {
                pool.submit(
                    _run_cell, spec, window_requests, warmup_requests,
                    observe, trace_config, record_spans, record_learner,
                ): spec
                for spec in started
            }
            if scatter is not None:
                obs.spans.end(scatter)
            gather = (
                obs.spans.begin("sweep.gather", cat="sweep")
                if record_spans
                else None
            )
            for future in as_completed(futures):
                outcome = future.result()
                if gather is not None and outcome[5]:
                    # Absorb worker spans here, parented under the gather
                    # span: the driver spends gather *waiting* on cells,
                    # so the critical path descends through it into the
                    # straggler cell instead of dead-ending at the wait.
                    obs.spans.absorb(outcome[5], parent=gather)
                    outcome = outcome[:5] + (None,)
                outcomes.append(outcome)
            if gather is not None:
                obs.spans.end(gather, cells=len(outcomes))
    except BrokenProcessPool as exc:
        done = {outcome[0] for outcome in outcomes}
        missing = [spec for spec in specs if spec.index not in done]
        failures = [
            CellFailure(
                index=spec.index,
                policy=spec.policy,
                capacity=spec.capacity,
                error=f"worker process died: {exc}",
                traceback="".join(traceback.format_exception(exc)),
            )
            for spec in missing
        ]
        results: list[SimulationResult | None] = [None] * len(specs)
        by_index = {spec.index: pos for pos, spec in enumerate(specs)}
        for outcome in outcomes:
            results[by_index[outcome[0]]] = outcome[1]
        raise SweepCellError(failures, results) from exc
    finally:
        if shared is not None:
            shared.release()
    return outcomes
