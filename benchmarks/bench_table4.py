"""Table 4 + Figure 13 — LHR inside Caffeine vs the W-TinyLFU baseline.

Appendix A.3: with much smaller in-memory caches (64/128/16/128 GB),
LHR lifts the content hit probability by 2-6% over Caffeine at a modest
CPU premium, and the per-window hit series shows LHR pulling ahead.
"""

from benchmarks.common import SCALE, TRACE_NAMES, emit, format_rows, trace
from repro.proto import make_caffeine_baseline, make_caffeine_lhr, run_prototype
from repro.traces.production import PRODUCTION_SPECS


def build_table4():
    rows = []
    series = {}
    for name in TRACE_NAMES:
        t = trace(name)
        spec = PRODUCTION_SPECS[name]
        capacity = spec.scaled_cache_bytes(spec.caffeine_cache_gb, SCALE)
        window = max(len(t) // 12, 200)
        lhr = run_prototype(
            make_caffeine_lhr(capacity, lhr_kwargs={"seed": 0}),
            t,
            "lhr",
            window_requests=window,
        )
        caffeine = run_prototype(
            make_caffeine_baseline(capacity), t, "caffeine", window_requests=window
        )
        rows.extend([lhr.as_row(), caffeine.as_row()])
        series[name] = (lhr.window_hit_ratios, caffeine.window_hit_ratios)
    return rows, series


def test_table4(benchmark):
    rows, series = benchmark.pedantic(build_table4, rounds=1, iterations=1)
    window_lines = []
    for name, (lhr, caffeine) in series.items():
        window_lines.append(f"{name} per-window hit (figure 13):")
        window_lines.append("  lhr      " + "  ".join(f"{v:5.3f}" for v in lhr))
        window_lines.append("  caffeine " + "  ".join(f"{v:5.3f}" for v in caffeine))
    emit("table4", format_rows(rows) + "\n\n" + "\n".join(window_lines))
    by_key = {(row["system"], row["trace"]): row for row in rows}
    for name in TRACE_NAMES:
        lhr = by_key[("lhr", name)]
        caffeine = by_key[("caffeine", name)]
        slack = 1.0 if name == "cdn-c" else 0.0
        # Table 4 shapes: LHR wins content hit probability and overall
        # latency; throughput no worse; CPU somewhat higher.
        assert (
            lhr["content_hit_percent"] >= caffeine["content_hit_percent"] - slack
        ), name
        assert lhr["mean_latency_ms"] <= caffeine["mean_latency_ms"] * 1.03, name
        # Throughput tracks byte-hit ratio; see EXPERIMENTS.md for why the
        # stand-ins narrow LHR's byte-hit edge relative to the paper.
        assert lhr["throughput_gbps"] >= caffeine["throughput_gbps"] * 0.93, name
        assert lhr["peak_cpu_percent"] >= caffeine["peak_cpu_percent"] * 0.95, name
