"""Experiment sweep runner.

``run_comparison`` is the workhorse behind Figures 2 and 8: it runs a set
of policies (by name) over a trace for one or more cache sizes and
returns the grid of :class:`SimulationResult`.  Policy names resolve
through the combined registry — the SOTA policies from
:mod:`repro.policies` plus LHR and its ablation variants.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.lhr import DLhrCache, LhrCache, NLhrCache
from repro.obs import NULL_OBS, Observation
from repro.obs.trace import TraceConfig
from repro.policies import POLICY_REGISTRY, make_policy
from repro.policies.base import CachePolicy
from repro.sim.metrics import SimulationResult
from repro.sim.parallel import CellSpec, run_sweep
from repro.traces.packed import PackedTrace
from repro.traces.request import Trace

_CORE_REGISTRY = {
    "lhr": LhrCache,
    "d-lhr": DLhrCache,
    "n-lhr": NLhrCache,
}


def build_policy(name: str, capacity: int, **kwargs) -> CachePolicy:
    """Instantiate any policy in the package — SOTAs, classics or LHR."""
    key = name.lower()
    if key in _CORE_REGISTRY:
        return _CORE_REGISTRY[key](capacity, **kwargs)
    return make_policy(key, capacity, **kwargs)


def known_policies() -> list[str]:
    """All resolvable policy names."""
    return sorted(set(POLICY_REGISTRY) | set(_CORE_REGISTRY))


def is_known_policy(name: str) -> bool:
    """Whether ``name`` resolves in either registry."""
    key = name.lower()
    return key in _CORE_REGISTRY or key in POLICY_REGISTRY


def sweep_specs(
    policy_names: Sequence[str],
    capacities: Iterable[int],
    policy_kwargs: dict[str, dict] | None = None,
) -> list[CellSpec]:
    """The (capacity-major) cell grid ``run_comparison`` executes.

    Unknown policy names are rejected here, in the driver process, so a
    typo fails fast instead of surfacing as worker failures.
    """
    unknown = sorted({n for n in policy_names if not is_known_policy(n)})
    if unknown:
        known = ", ".join(known_policies())
        raise ValueError(f"unknown policies {unknown}; known: {known}")
    overrides = policy_kwargs or {}
    specs: list[CellSpec] = []
    for capacity in capacities:
        for name in policy_names:
            specs.append(
                CellSpec.make(
                    name,
                    capacity,
                    overrides.get(name, {}),
                    index=len(specs),
                )
            )
    return specs


def run_comparison(
    trace: Trace | PackedTrace,
    policy_names: Sequence[str],
    capacities: Iterable[int],
    window_requests: int = 0,
    warmup_requests: int = 0,
    policy_kwargs: dict[str, dict] | None = None,
    parallel: int = 0,
    mp_context=None,
    obs: Observation = NULL_OBS,
    trace_config: TraceConfig | None = None,
    event_fields: dict | None = None,
) -> list[SimulationResult]:
    """Run every (policy, capacity) combination over ``trace``.

    ``policy_kwargs`` maps policy name -> constructor overrides.  Each
    combination gets a fresh policy instance — constructed inside the
    worker when ``parallel > 1`` fans the grid out over that many
    processes.  Results come back in grid order (capacity-major, then
    the order of ``policy_names``) and are bit-identical to a serial
    run; a failing cell raises :class:`~repro.sim.parallel.SweepCellError`
    naming the (policy, capacity) pair once every sibling has finished.
    ``obs`` threads an observation handle through every cell (see
    :func:`repro.sim.parallel.run_sweep`); parallel and serial execution
    produce the same grid-ordered event stream.  ``trace_config`` runs
    every cell under its own decision tracer, returned on each result's
    ``decision_trace``.  ``event_fields`` stamps constant fields onto
    every observed event (the workload lab tags scenario-matrix sweeps
    with it).
    """
    specs = sweep_specs(policy_names, capacities, policy_kwargs)
    return run_sweep(
        trace,
        specs,
        window_requests=window_requests,
        warmup_requests=warmup_requests,
        jobs=parallel,
        mp_context=mp_context,
        obs=obs,
        trace_config=trace_config,
        event_fields=event_fields,
    )


def best_policy(results: Sequence[SimulationResult]) -> SimulationResult:
    """The result with the highest object hit ratio (the paper's
    "best-performing SOTA" selector)."""
    if not results:
        raise ValueError("no results to choose from")
    return max(results, key=lambda result: result.object_hit_ratio)


def format_table(results: Sequence[SimulationResult]) -> str:
    """Plain-text results table for benchmark harness output."""
    if not results:
        return "(no results)"
    rows = [result.as_row() for result in results]
    columns = list(rows[0])
    widths = {
        col: max(len(col), *(len(str(row.get(col, ""))) for row in rows))
        for col in columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)
