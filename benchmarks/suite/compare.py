"""``compare``: judge a new ``run`` report against a base one.

One row per (end-to-end metric, workload), each with one verdict:

* ``regressed`` — the new median is worse than the base median by more
  than the metric's bound, and the runs separate it from noise;
* ``improved`` — better by more than the bound, likewise separated;
* ``unresolved`` — the repeats' spread (quartile distance over median,
  on either side) is wider than the bound and the runs do not all
  separate, so the data cannot tell;
* ``unchanged`` — otherwise.

Bounds come from ``BENCHMARK.json``.  Metrics that are a pure function
of the seed (hit ratios, error rate) must match exactly.  The command
exits 1 on any regression, or when a larger share of operations failed
than in the base run.
"""

from __future__ import annotations

from benchmarks.suite.harness import fmt_value, text_table


def _worsening(better: str, base: float, new: float) -> float:
    """Relative change, positive when ``new`` is worse than ``base``."""
    if base == 0:
        return 0.0 if new == base else (1.0 if (new > 0) == (better == "lower") else -1.0)
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _spread(entry: dict) -> float:
    median = entry["median"]
    return (entry["q3"] - entry["q1"]) / abs(median) if median else 0.0


def _all_better(better: str, base: list[float], new: list[float]) -> bool:
    if better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def verdict(metric: dict, base: dict, new: dict) -> tuple[str, float]:
    """``(verdict, relative worsening)`` for one metric on one workload."""
    better = metric["better"]
    worse = _worsening(better, base["median"], new["median"])
    if metric["exact"]:
        if worse > 0:
            return "regressed", worse
        return ("improved" if worse < 0 else "unchanged"), worse
    bound = metric["bound"]
    noisy = max(_spread(base), _spread(new)) > bound
    if worse > bound:
        separated = _all_better(better, new["samples"], base["samples"])
        return ("regressed" if separated or not noisy else "unresolved"), worse
    if -worse > bound:
        separated = _all_better(better, base["samples"], new["samples"])
        return ("improved" if separated or not noisy else "unresolved"), worse
    if noisy and not _all_better(better, base["samples"], new["samples"]):
        return "unresolved", worse
    return "unchanged", worse


def compare_reports(base: dict, new: dict, bounds: dict) -> tuple[list[list[str]], bool]:
    """Table rows and whether the new report fails the comparison."""
    rows = []
    failed = False
    for workload, new_run in new["workloads"].items():
        base_run = base["workloads"].get(workload)
        if base_run is None:
            rows.append(["*", workload, "-", "-", "-", "missing in base"])
            continue
        for name, metric in bounds.items():
            b, n = base_run["end_to_end"][name], new_run["end_to_end"][name]
            result, worse = verdict(metric, b, n)
            failed |= result == "regressed"
            bound = "exact" if metric["exact"] else f"{100 * metric['bound']:.0f}%"
            rows.append(
                [
                    name,
                    workload,
                    fmt_value(b["median"]),
                    fmt_value(n["median"]),
                    f"{-100 * worse:+.2f}% (bound {bound})",
                    result,
                ]
            )
    base_share = base["ops_failed"] / max(base["ops_attempted"], 1)
    new_share = new["ops_failed"] / max(new["ops_attempted"], 1)
    if new_share > base_share:
        failed = True
    return rows, failed


def render(rows: list[list[str]], base: dict, new: dict) -> str:
    lines = [
        text_table(["metric", "workload", "base", "new", "change (+ better)", "verdict"], rows),
        f"failed operations: base {base['ops_failed']}/{base['ops_attempted']}, "
        f"new {new['ops_failed']}/{new['ops_attempted']}",
    ]
    return "\n".join(lines)
