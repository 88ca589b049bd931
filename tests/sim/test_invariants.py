"""Cache invariants at every chunk edge, over both golden corpora.

The golden fixtures pin what each policy *did*; these properties say it
stayed a cache while doing it.  A checker closes over the policy and
rides the engine's heartbeat, which fires at chunk edges after the span
kernel (or the base walker) has written its counters back, so every
edge sees the exact state a replay stopped at.  At each edge, and once
more after the replay:

* hits + misses = requests so far;
* hit bytes + miss bytes = bytes so far;
* ``0 <= used_bytes == sum(cached_objects()) <= capacity``;
* admissions - evictions = the number of cached objects.

Each run draws its own heartbeat stride, so the edges land at different
places in every (policy, trace) pair.  Both corpora hold all four
invariants for every registered policy, so there is no exception list.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.sim import known_policies, simulate
from repro.sim.runner import build_policy
from repro.traces.packed import PackedTrace
from repro.traces.synthetic import irm_trace
from repro.workloads import ScenarioConfig, generate_packed

TESTS = Path(__file__).parent.parent
GOLDEN = json.loads((TESTS / "sim" / "golden_hit_ratios.json").read_text())
SCENARIOS = json.loads(
    (TESTS / "workloads" / "golden_scenarios.json").read_text()
)


@pytest.fixture(scope="module")
def corpus_traces() -> list[tuple[PackedTrace, int, dict]]:
    """``(trace, capacity, policy_kwargs)`` for the golden trace and each
    golden scenario, at the capacities the corpora pin."""
    params = GOLDEN["trace"]
    golden = irm_trace(
        params["num_requests"], params["num_contents"], alpha=params["alpha"],
        mean_size=params["mean_size"], size_sigma=params["size_sigma"],
        seed=params["seed"], name=params["name"],
    )
    traces = [
        (PackedTrace.from_trace(golden), GOLDEN["capacity"], GOLDEN["policy_kwargs"])
    ]
    for scenario, pinned in sorted(SCENARIOS["scenarios"].items()):
        config = ScenarioConfig.make(
            scenario, SCENARIOS["num_requests"], SCENARIOS["seed"]
        )
        traces.append(
            (generate_packed(config), pinned["capacity"], SCENARIOS["policy_kwargs"])
        )
    return traces


def invariant_checker(policy, sizes):
    """A heartbeat asserting the cache invariants after ``done`` requests
    of a replay whose request sizes are ``sizes``."""
    bytes_so_far = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))

    def check(done: int) -> None:
        where = f"{policy.name} after {done} requests"
        cached = policy.cached_objects()
        assert policy.hits + policy.misses == done, where
        assert policy.hit_bytes + policy.miss_bytes == bytes_so_far[done], where
        assert 0 <= policy.used_bytes == sum(cached.values()) <= policy.capacity, where
        assert policy.admissions - policy.evictions == len(cached), where
        check.edges += 1

    check.edges = 0
    return check


@pytest.mark.parametrize("name", known_policies())
def test_invariants_hold_at_every_chunk_edge(name, corpus_traces):
    for trace, capacity, policy_kwargs in corpus_traces:
        policy = build_policy(name, capacity, **policy_kwargs.get(name, {}))
        check = invariant_checker(policy, trace.sizes)
        stride = random.Random(f"{trace.name}/{name}").randrange(1, 100)
        simulate(policy, trace, heartbeat=check, heartbeat_interval=stride)
        assert check.edges == len(trace) // stride
        check(len(trace))
