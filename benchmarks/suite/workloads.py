"""Worker side: build one workload's inputs, replay them, check the outputs.

This module runs inside the per-workload subprocess the orchestrator
starts (``python -m benchmarks.suite worker ...``).  It talks to the
program only through public entry points: ``repro.traces`` to generate
and pack the traces, ``repro.sim`` to build policies and replay them.

Protocol on standard output: one ``READY`` line once set-up is done (the
orchestrator times set-up up to it), then, unless ``--setup-only``, one
JSON line with every sample and count the run produced.

Every cell replay is one operation.  It fails when it raises, when the
cache breaks a conservation invariant, or when its counters differ from
the first replay of the same cell (repeats and the traced replay alike).
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.suite.catalog import ROOT, WORKLOADS, Workload
from repro.policies.base import CachePolicy
from repro.sim import SimulationResult, SweepCellError, build_policy, engine, run_comparison
from repro.traces import PRODUCTION_SPECS, PackedTrace, generate_production_trace

#: Timed repeats a time-budgeted run makes at least.
MIN_REPEATS = 2

#: Upper bound on timed repeats, whatever the budget.
MAX_REPEATS = 50


@dataclass(frozen=True)
class Cell:
    """One policy at one capacity over one of the workload's traces."""

    trace: int
    policy: str
    capacity: int

    def __str__(self) -> str:
        return f"{self.policy}@{self.capacity}/trace{self.trace}"


@dataclass
class Inputs:
    """One workload's generated inputs: the program sees only the packed
    traces."""

    traces: list[PackedTrace]
    trace_bytes: list[int]
    capacities: list[int]
    generate_s: float
    pack_s: float

    def cells(self, workload: Workload) -> list[Cell]:
        """Per trace, the capacity-major grid ``run_comparison`` uses."""
        return [
            Cell(t, p, c)
            for t in range(len(self.traces))
            for c in self.capacities
            for p in workload.policies
        ]

    @property
    def requests(self) -> int:
        return sum(len(packed) for packed in self.traces)


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's traces from ``seed`` and pack them."""
    spec = PRODUCTION_SPECS[workload.spec]
    generate_s = pack_s = 0.0
    traces = []
    for trace_seed in workload.trace_seeds(seed):
        start = time.perf_counter()
        trace = generate_production_trace(spec, scale=workload.scale, seed=trace_seed)
        generated = time.perf_counter()
        packed = PackedTrace.from_trace(trace)
        packed.scalar_columns()
        generate_s += generated - start
        pack_s += time.perf_counter() - generated
        traces.append(packed)
    return Inputs(
        traces=traces,
        trace_bytes=[int(packed.sizes.sum()) for packed in traces],
        capacities=[spec.scaled_cache_bytes(gb, workload.scale) for gb in workload.cache_gb],
        generate_s=generate_s,
        pack_s=pack_s,
    )


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def check_result(result: SimulationResult, requests: int, trace_bytes: int) -> list[str]:
    """Conservation checks a result alone supports."""
    problems = []
    if result.requests != requests:
        problems.append(f"requests {result.requests} != trace length {requests}")
    if result.total_bytes != trace_bytes:
        problems.append(f"total_bytes {result.total_bytes} != trace bytes {trace_bytes}")
    if not 0 <= result.hits <= result.requests:
        problems.append(f"hits {result.hits} outside [0, {result.requests}]")
    if not 0 <= result.hit_bytes <= result.total_bytes:
        problems.append(f"hit_bytes {result.hit_bytes} outside [0, {result.total_bytes}]")
    if result.evictions > result.admissions:
        problems.append(f"evictions {result.evictions} > admissions {result.admissions}")
    return problems


def check_policy(
    policy: CachePolicy, result: SimulationResult, requests: int, trace_bytes: int
) -> list[str]:
    """Conservation checks on the cache state a serial replay leaves."""
    problems = check_result(result, requests, trace_bytes)
    if policy.hits + policy.misses != requests:
        problems.append(
            f"hits + misses = {policy.hits + policy.misses} != {requests} requests"
        )
    if policy.hit_bytes + policy.miss_bytes != trace_bytes:
        problems.append(
            f"hit_bytes + miss_bytes = {policy.hit_bytes + policy.miss_bytes} "
            f"!= {trace_bytes} trace bytes"
        )
    cached = sum(policy.cached_objects().values())
    if not 0 <= policy.used_bytes == cached <= policy.capacity:
        problems.append(
            f"used_bytes {policy.used_bytes}, cached bytes {cached}, "
            f"capacity {policy.capacity} break 0 <= used == cached <= capacity"
        )
    if policy.admissions - policy.evictions != policy.num_objects:
        problems.append(
            f"admissions - evictions = {policy.admissions - policy.evictions} "
            f"!= {policy.num_objects} cached objects"
        )
    if (result.hits, result.hit_bytes) != (policy.hits, policy.hit_bytes):
        problems.append("result hit counters disagree with the policy's")
    return problems


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------


@dataclass
class Repeat:
    """One replay of every cell: timing plus per-cell counters/problems."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    counters: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    cell_seconds: list = field(default_factory=list)


def replay(workload: Workload, inputs: Inputs, traces: int | None = None) -> Repeat:
    """Replay every cell of the first ``traces`` traces (default: all)
    once, with fresh policies."""
    repeat = Repeat()
    for index in range(len(inputs.traces) if traces is None else traces):
        gc.collect()
        if workload.jobs:
            _replay_sweep(workload, inputs, index, repeat)
        else:
            _replay_serial(workload, inputs, index, repeat)
    return repeat


def _replay_serial(workload: Workload, inputs: Inputs, index: int, repeat: Repeat) -> None:
    packed = inputs.traces[index]
    for capacity in inputs.capacities:
        for name in workload.policies:
            kwargs = workload.policy_kwargs.get(name, {})
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            try:
                policy = build_policy(name, capacity, **kwargs)
                # Looked up on the module at call time, so a traced repeat
                # goes through the tracer's wrapper.
                result = engine.simulate(policy, packed)
            except Exception as exc:  # noqa: BLE001 — a failed cell is data
                error = f"raised {type(exc).__name__}: {exc}"
                result = None
            finally:
                repeat.wall_s += time.perf_counter() - start
                repeat.cpu_s += cpu_seconds() - cpu_start
            if result is None:
                repeat.counters.append(None)
                repeat.problems.append([error])
                continue
            repeat.counters.append(result.counters())
            repeat.problems.append(
                check_policy(policy, result, len(packed), inputs.trace_bytes[index])
            )
            repeat.cell_seconds.append(result.runtime_seconds)


def _replay_sweep(workload: Workload, inputs: Inputs, index: int, repeat: Repeat) -> None:
    packed = inputs.traces[index]
    failures = {}
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    try:
        results = run_comparison(
            packed,
            workload.policies,
            inputs.capacities,
            policy_kwargs=workload.policy_kwargs,
            parallel=workload.jobs,
        )
    except SweepCellError as exc:
        results = exc.results
        failures = {f.index: f"raised {f.error}" for f in exc.failures}
    repeat.wall_s += time.perf_counter() - start
    repeat.cpu_s += cpu_seconds() - cpu_start
    for cell, result in enumerate(results):
        if result is None:
            repeat.counters.append(None)
            repeat.problems.append([failures.get(cell, "no result")])
            continue
        repeat.counters.append(result.counters())
        repeat.problems.append(
            check_result(result, len(packed), inputs.trace_bytes[index])
        )
        repeat.cell_seconds.append(result.runtime_seconds)


# ----------------------------------------------------------------------
# Operation accounting
# ----------------------------------------------------------------------


class Ledger:
    """Counts cell replays and failures; pins each cell's first counters."""

    def __init__(self, cells: list[Cell]):
        self.cells = cells
        self.reference: list[dict | None] = [None] * len(cells)
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, repeat: Repeat, label: str) -> None:
        for index, (counters, problems) in enumerate(
            zip(repeat.counters, repeat.problems)
        ):
            self.attempted += 1
            problems = list(problems)
            reference = self.reference[index]
            if counters is not None:
                if reference is None:
                    self.reference[index] = counters
                elif counters != reference:
                    problems.append(
                        f"counters {counters} differ from the first replay's {reference}"
                    )
            if problems:
                self.failures.append(f"{label} {self.cells[index]}: " + "; ".join(problems))

    def totals(self) -> dict:
        counted = [c for c in self.reference if c is not None]
        return {
            key: sum(c[key] for c in counted)
            for key in ("requests", "hits", "hit_bytes", "total_bytes")
        }


# ----------------------------------------------------------------------
# The worker run
# ----------------------------------------------------------------------


def _timing(repeat: Repeat) -> dict:
    return {"wall_s": repeat.wall_s, "cpu_s": repeat.cpu_s}


def run_worker(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    seconds: float | None,
    repeats: int | None,
    trace: bool,
    trace_out: Path | None,
) -> dict:
    """Warm up on the first trace, then either time whole-workload
    repeats (``repeats`` of them, or at least ``MIN_REPEATS`` filling
    ``seconds``) or, with ``trace``, alternate untraced and traced
    repeats (``repeats`` traced ones, default 1); returns the JSON
    payload."""
    cells = inputs.cells(workload)
    ledger = Ledger(cells)
    # The first replay in a fresh process runs up to 1.5x slower while the
    # heap grows; the traces are alike in size, so one warms for all.
    warmup = replay(workload, inputs, traces=1)
    ledger.record(warmup, "warmup")
    timed: list[Repeat] = []
    traced = None
    if trace:
        traced = _traced_repeats(workload, inputs, ledger, timed, trace_out, repeats or 1)
    else:
        started = time.perf_counter()
        while len(timed) < (repeats or MAX_REPEATS):
            enough = len(timed) >= MIN_REPEATS
            if repeats is None and enough and time.perf_counter() - started >= seconds:
                break
            repeat = replay(workload, inputs)
            ledger.record(repeat, f"repeat {len(timed)}")
            timed.append(repeat)

    totals = ledger.totals()
    return {
        "workload": workload.name,
        "seed": seed,
        "requests": sum(len(inputs.traces[cell.trace]) for cell in cells),
        "counted_requests": totals["requests"],
        "generate_s": inputs.generate_s,
        "pack_s": inputs.pack_s,
        "warmup": _timing(warmup),
        "repeats": [_timing(r) for r in timed],
        "cells": [
            {"cell": str(cell), "counters": ref}
            for cell, ref in zip(cells, ledger.reference)
        ],
        "hits": totals["hits"],
        "hit_bytes": totals["hit_bytes"],
        "total_bytes": totals["total_bytes"],
        "ops_attempted": ledger.attempted,
        "ops_failed": len(ledger.failures),
        "failures": ledger.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": traced,
    }


def _traced_repeats(workload, inputs, ledger, timed, trace_out, count) -> dict:
    """Untraced, then ``count`` times traced-and-untraced.

    Untraced neighbours bracket each traced repeat, so slow drift of the
    machine's speed does not read as tracing overhead.  The overhead is
    the median over traced repeats; the layer metrics and spans are those
    of the traced repeat with the median wall time.
    """
    from benchmarks.suite.layers import PARENT_SIDE, LayerTracer

    untraced = [replay(workload, inputs)]
    ledger.record(untraced[0], "untraced 0")
    runs = []
    for index in range(count):
        tracer = LayerTracer().install(PARENT_SIDE if workload.jobs else None)
        try:
            repeat = replay(workload, inputs)
        finally:
            tracer.uninstall()
        ledger.record(repeat, f"traced {index}")
        after = replay(workload, inputs)
        ledger.record(after, f"untraced {index + 1}")
        neighbours = (untraced[-1].wall_s + after.wall_s) / 2
        runs.append((repeat, tracer, repeat.wall_s / neighbours - 1.0))
        untraced.append(after)
    timed += untraced
    repeat, tracer, _ = sorted(runs, key=lambda run: run[0].wall_s)[len(runs) // 2]
    layers = tracer.metrics()
    layers["traces.generate_s"] = inputs.generate_s
    layers["traces.pack_s"] = inputs.pack_s
    if workload.jobs:
        cell_sum = sum(repeat.cell_seconds)
        layers.update(
            {
                "sim.parallel.wall_s": repeat.wall_s,
                "sim.parallel.cell_s_sum": cell_sum,
                "sim.parallel.cell_s_max": max(repeat.cell_seconds, default=0.0),
                "sim.parallel.efficiency": cell_sum / (workload.jobs * repeat.wall_s),
                "sim.parallel.overhead_s": repeat.wall_s - cell_sum / workload.jobs,
            }
        )
    layers["bench.trace_overhead_pct"] = 100.0 * statistics.median(run[2] for run in runs)
    if trace_out is not None:
        tracer.spans.write_chrome_trace(trace_out)
    return {
        "wall_s": repeat.wall_s,
        "traced_repeats": count,
        "overheads_pct": [100.0 * run[2] for run in runs],
        "layers": layers,
        "self_s": tracer.self_times(),
        "spans": len(tracer.spans),
    }


def main(args) -> int:
    """Entry point of ``python -m benchmarks.suite worker``."""
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"repro imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = build_inputs(workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    payload = run_worker(
        workload,
        inputs,
        seed=args.seed,
        seconds=args.seconds,
        repeats=args.repeats,
        trace=args.trace,
        trace_out=Path(args.trace_out) if args.trace_out else None,
    )
    print(json.dumps(payload), flush=True)
    return 0
