#!/usr/bin/env python3
"""Admission audit: where do wasted admissions go?

Replays several policies with a decision tracer attached and compares
the quantities an admission policy exists to control: how many misses
were admitted, how many admissions died without serving a single hit
("dead on arrival"), and how long evicted objects survived.  Run on a
one-hit-heavy workload the differences are stark — this is the paper's
Section 2 motivation made measurable.

Run:  python examples/admission_audit.py
"""

from repro import generate_production_trace
from repro.obs import DecisionTracer
from repro.sim import build_policy, simulate

POLICIES = ("lru", "b-lru", "secondhit", "adaptsize", "w-tinylfu", "lhr")


def main() -> None:
    trace = generate_production_trace("cdn-a", scale=0.01, seed=41)
    capacity = int(0.05 * trace.unique_bytes())
    print(
        f"cdn-a stand-in: {len(trace)} requests, "
        f"cache {capacity >> 30} GB, "
        f"~55% one-hit contents by construction\n"
    )
    header = (
        f"{'policy':<11}{'hit ratio':>10}{'admit %':>9}{'DOA %':>8}"
        f"{'mean life (s)':>15}{'hits/life':>11}"
    )
    print(header)
    print("-" * len(header))
    for name in POLICIES:
        kwargs = {"seed": 0} if name == "lhr" else {}
        tracer = DecisionTracer()
        result = simulate(build_policy(name, capacity, **kwargs), trace, tracer=tracer)
        report = tracer.residency()
        print(
            f"{name:<11}"
            f"{result.object_hit_ratio:>10.3f}"
            f"{report['admission_ratio'] * 100:>9.1f}"
            f"{report['dead_on_arrival_ratio'] * 100:>8.1f}"
            f"{report['mean_eviction_age_s']:>15.0f}"
            f"{report['mean_hits_per_residency']:>11.2f}"
        )
    print(
        "\nReading: 'DOA %' counts admissions evicted with zero hits —"
        " pure waste.  Second-request filters cut it directly; AdaptSize"
        " and LHR win differently, by keeping what they admit resident"
        " far longer (mean life) so the useful admissions pay off."
    )


if __name__ == "__main__":
    main()
