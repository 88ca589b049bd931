"""Golden regression fixtures: pinned hit ratios for every policy.

``golden_hit_ratios.json`` freezes the exact counters and ratios each
registered policy produces on a fixed-seed synthetic trace.  Any perf
refactor (parallel execution, engine rewrites, data-structure swaps)
must keep these bit-identical: counts are compared exactly, ratios to
1e-9 (they are integer quotients, so drift means behaviour changed).

Regenerate after an *intentional* behaviour change with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sim/test_golden.py -q

and review the fixture diff like code.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.sim import build_policy, known_policies, run_comparison, simulate
from repro.traces import generate_production_trace
from repro.traces.packed import PackedTrace
from repro.traces.production import PRODUCTION_SPECS
from repro.traces.request import Trace
from repro.traces.synthetic import irm_trace

GOLDEN_PATH = Path(__file__).parent / "golden_hit_ratios.json"

#: Trace/grid parameters are part of the fixture contract — change them
#: and every pinned number changes with them.
TRACE_PARAMS = dict(
    num_requests=1200,
    num_contents=100,
    alpha=0.9,
    mean_size=1 << 14,
    size_sigma=1.2,
    seed=7,
    name="golden",
)
CAPACITY_FRACTION = 0.15
GOLDEN_KWARGS = {
    "lrb": {"training_batch": 256, "max_training_data": 1024},
    "lfo": {"window_requests": 200},
}


def compute_golden() -> dict:
    trace = irm_trace(
        TRACE_PARAMS["num_requests"],
        TRACE_PARAMS["num_contents"],
        alpha=TRACE_PARAMS["alpha"],
        mean_size=TRACE_PARAMS["mean_size"],
        size_sigma=TRACE_PARAMS["size_sigma"],
        seed=TRACE_PARAMS["seed"],
        name=TRACE_PARAMS["name"],
    )
    capacity = max(int(CAPACITY_FRACTION * trace.unique_bytes()), 1)
    names = known_policies()
    results = run_comparison(
        trace, names, [capacity], policy_kwargs=GOLDEN_KWARGS
    )
    policies = {
        name: {
            **result.counters(),
            "object_hit_ratio": result.object_hit_ratio,
            "byte_hit_ratio": result.byte_hit_ratio,
        }
        for name, result in zip(names, results)
    }
    return {
        "trace": dict(TRACE_PARAMS),
        "capacity_fraction": CAPACITY_FRACTION,
        "capacity": capacity,
        "policy_kwargs": GOLDEN_KWARGS,
        "policies": policies,
    }


def regenerating() -> bool:
    return os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


def test_golden_hit_ratios():
    current = compute_golden()
    if regenerating() or not GOLDEN_PATH.exists():
        GOLDEN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}; review and commit the diff")

    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["trace"] == current["trace"], "fixture trace params drifted"
    assert golden["capacity"] == current["capacity"]

    assert sorted(golden["policies"]) == sorted(current["policies"]), (
        "policy registry changed; regenerate the fixture deliberately"
    )
    count_keys = (
        "requests", "hits", "hit_bytes", "total_bytes", "evictions", "admissions"
    )
    mismatches = []
    for name, pinned in golden["policies"].items():
        now = current["policies"][name]
        for key in count_keys:
            if pinned[key] != now[key]:
                mismatches.append(f"{name}.{key}: {pinned[key]} -> {now[key]}")
        for key in ("object_hit_ratio", "byte_hit_ratio"):
            if abs(pinned[key] - now[key]) > 1e-9:
                mismatches.append(f"{name}.{key}: {pinned[key]} -> {now[key]}")
    assert not mismatches, (
        "behaviour drifted from the golden fixture (regenerate only if "
        "intentional):\n" + "\n".join(mismatches)
    )


#: Hits of six policies on the first 4,000 requests of the cdn-a stand-in
#: that the figure benchmarks replay (scale 0.01, seed 1), at the 512 GB
#: paper size scaled to 0.01, with ``benchmarks/bench_throughput.py``'s
#: policy arguments.  The fixture above replays an IRM trace, so these
#: cells are the one pin on a production stand-in.
CDN_A_HEAD_HITS = {
    "lru": ({}, 1514),
    "gdsf": ({}, 2036),
    "w-tinylfu": ({}, 1726),
    "lhd": ({}, 2003),
    "lhr": ({"seed": 0}, 1968),
    "lrb": ({"training_batch": 4096, "max_training_data": 8192, "seed": 0}, 1516),
}


def test_cdn_a_stand_in_hits():
    """Exact hits on both replay paths: per-request ``request`` calls and
    ``simulate`` over the packed trace end with identical counters."""
    stand_in = generate_production_trace("cdn-a", scale=0.01, seed=1)
    trace = Trace(list(stand_in.requests[:4000]), name="cdn-a-head")
    packed = PackedTrace.from_trace(trace)
    capacity = PRODUCTION_SPECS["cdn-a"].scaled_cache_bytes(512, 0.01)
    assert capacity == 5_497_558_138

    def counters(policy):
        return (
            policy.hits, policy.misses, policy.hit_bytes,
            policy.evictions, policy.admissions,
        )

    mismatches = []
    for name, (kwargs, hits) in CDN_A_HEAD_HITS.items():
        walked = build_policy(name, capacity, **kwargs)
        for request in trace:
            walked.request(request)
        replayed = build_policy(name, capacity, **kwargs)
        simulate(replayed, packed)
        if walked.hits != hits:
            mismatches.append(f"{name}.hits: {hits} -> {walked.hits}")
        if counters(replayed) != counters(walked):
            mismatches.append(
                f"{name}: packed {counters(replayed)} != request "
                f"{counters(walked)}"
            )
    assert not mismatches, "\n".join(mismatches)
