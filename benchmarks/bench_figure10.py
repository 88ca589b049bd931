"""Figure 10 — ablation: LHR vs D-LHR (fixed threshold) vs N-LHR (no
detection, retrain every window).

Paper findings: (a) auto-tuning matters most on CDN-C; (b) detection
cuts training time 15-40% with no memory cost; (c) LHR >= N-LHR on hit
probability with lower training time on most traces.  Here (b) is checked
as a saving in trainings, which is deterministic.
"""

from benchmarks.common import (
    TRACE_NAMES,
    cache_bytes,
    emit,
    format_rows,
    paper_cache_sizes,
    trace,
)
from repro.sim import build_policy

MB = 1 << 20


def build_figure10():
    rows = []
    for name in TRACE_NAMES:
        t = trace(name)
        for cache_gb in paper_cache_sizes(name):
            capacity = cache_bytes(name, cache_gb)
            for variant in ("lhr", "d-lhr", "n-lhr"):
                policy = build_policy(variant, capacity, seed=0)
                policy.process(t)
                rows.append(
                    {
                        "trace": name,
                        "cache_gb": cache_gb,
                        "variant": variant,
                        "object_hit": round(policy.object_hit_ratio, 3),
                        "trainings": policy.trainings,
                        "training_time_s": round(policy.training_seconds, 3),
                        "peak_memory_mb": round(policy.metadata_bytes() / MB, 2),
                        "final_delta": round(policy.delta, 2),
                    }
                )
    return rows


def test_figure10(benchmark):
    rows = benchmark.pedantic(build_figure10, rounds=1, iterations=1)
    emit("figure10", format_rows(rows))
    for name in TRACE_NAMES:
        for cache_gb in paper_cache_sizes(name):
            cell = {
                r["variant"]: r
                for r in rows
                if r["trace"] == name and r["cache_gb"] == cache_gb
            }
            # (b) detection reduces training count vs retrain-always.
            assert cell["d-lhr"]["trainings"] <= cell["n-lhr"]["trainings"]
            # (a)+(c): the full LHR is at worst marginally behind its
            # ablations and generally ahead.
            assert (
                cell["lhr"]["object_hit"]
                >= max(cell["d-lhr"]["object_hit"], cell["n-lhr"]["object_hit"])
                - 0.03
            ), (name, cache_gb)
    # Across all scenarios, detection saves trainings in aggregate.  The
    # count is deterministic; one wall-clock read per cell is not, so the
    # training_time_s column is reported but not asserted on.
    d_trainings = sum(r["trainings"] for r in rows if r["variant"] == "d-lhr")
    n_trainings = sum(r["trainings"] for r in rows if r["variant"] == "n-lhr")
    assert d_trainings < n_trainings
