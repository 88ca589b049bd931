"""Shared benchmark-harness configuration.

Every benchmark regenerates one table or figure of the paper.  Scale is
controlled by the ``REPRO_SCALE`` environment variable — the fraction of
the paper's trace size to replay (default 0.01 = ~10k requests per trace,
fast enough for CI; 1.0 replays paper-scale ~1M-request traces).

Results print to stdout and are archived under ``benchmarks/results/``.
``EXPERIMENTS.md`` records the paper-reported values next to ours.
Speed is measured by ``python -m benchmarks.suite``, not here.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from repro.sim import run_comparison
from repro.traces import Trace, generate_production_trace
from repro.traces.production import PRODUCTION_SPECS

#: Fraction of paper-scale replayed by the benchmarks.
SCALE = float(os.environ.get("REPRO_SCALE", "0.01"))

#: Deterministic seed for every generated workload.
SEED = int(os.environ.get("REPRO_SEED", "1"))

#: Worker processes for every sweep benchmark (0/1 = serial).  Parallel
#: sweeps are bit-identical to serial ones, so this only changes speed.
JOBS = int(os.environ.get("REPRO_JOBS", "0"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The trace names of Table 1, in paper order.
TRACE_NAMES = ("cdn-a", "cdn-b", "cdn-c", "wiki")

#: LRB is the slowest baseline; trimmed training settings keep benchmark
#: wall time sane at small scale without changing its structure.
LRB_KWARGS = {"training_batch": 2048, "max_training_data": 8192}
LFO_KWARGS = {"window_requests": 3000}


@lru_cache(maxsize=None)
def trace(name: str, scale: float = SCALE, seed: int = SEED) -> Trace:
    """Cached stand-in trace for ``name`` at the configured scale."""
    return generate_production_trace(name, scale=scale, seed=seed)


def cache_bytes(name: str, cache_gb: float, scale: float = SCALE) -> int:
    """Paper cache size translated to the replay scale."""
    return PRODUCTION_SPECS[name].scaled_cache_bytes(cache_gb, scale)


def paper_cache_sizes(name: str) -> tuple[int, ...]:
    """The two cache sizes (GB) the paper reports for this trace."""
    return PRODUCTION_SPECS[name].cache_sizes_gb


def policy_kwargs() -> dict[str, dict]:
    return {"lrb": dict(LRB_KWARGS), "lfo": dict(LFO_KWARGS)}


def compare(t: Trace, policy_names, capacities, **kwargs):
    """``run_comparison`` honouring the ``REPRO_JOBS`` fan-out setting."""
    return run_comparison(t, policy_names, capacities, parallel=JOBS, **kwargs)


def emit(experiment: str, text: str) -> None:
    """Print a result block and archive it under benchmarks/results/."""
    banner = f"===== {experiment} (scale={SCALE}) ====="
    print(f"\n{banner}\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{experiment}.txt"
    out.write_text(f"{banner}\n{text}\n")


def format_rows(rows: list[dict]) -> str:
    """Fixed-width table from a list of dicts (shared column set)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0])
    widths = {
        col: max(len(str(col)), *(len(str(row.get(col, ""))) for row in rows))
        for col in columns
    }
    lines = ["  ".join(str(col).ljust(widths[col]) for col in columns)]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)
