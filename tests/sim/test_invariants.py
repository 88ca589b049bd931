"""Cache invariants at every chunk edge, over both golden corpora.

The golden fixtures pin what each policy *did*; these properties say it
stayed a cache while doing it.  A checker hooks the policy's
``metadata_bytes``, which the engine calls at each metadata probe — a
chunk edge, after the span kernel (or the base walker) has written its
counters back — and once more after the replay, so every probe sees the
exact state a replay stopped at.  With no windows and no warmup, the
probes are the only chunk edges: after requests 1, stride + 1,
2·stride + 1, ....  At each of them, and at the end:

* hits + misses = requests so far (the checker reads each edge as
  hits + misses, and every run asserts that the edges it checked are
  exactly the probe schedule);
* hit bytes + miss bytes = bytes so far;
* ``0 <= used_bytes == sum(cached_objects()) <= capacity``;
* admissions - evictions = the number of cached objects.

Each run draws its own probe stride, so the edges land at different
places in every (policy, trace) pair.  Both corpora hold all four
invariants for every registered policy, so there is no exception list.
So does a trace whose contents change size, which is why the trace input
contract (``repro.traces.packed.checked_columns``) allows it.
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


def invariant_checker(policy, sizes) -> list[int]:
    """Hook ``policy.metadata_bytes`` to assert the cache invariants each
    time the engine probes it, in a replay whose request sizes are
    ``sizes``.  Returns the list the hook fills with the number of
    requests replayed at each probe."""
    bytes_so_far = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    metadata_bytes = policy.metadata_bytes
    edges: list[int] = []

    def probe() -> int:
        done = policy.hits + policy.misses
        where = f"{policy.name} after {done} requests"
        cached = policy.cached_objects()
        assert policy.hit_bytes + policy.miss_bytes == bytes_so_far[done], where
        assert 0 <= policy.used_bytes == sum(cached.values()) <= policy.capacity, where
        assert policy.admissions - policy.evictions == len(cached), where
        edges.append(done)
        return metadata_bytes()

    policy.metadata_bytes = probe
    return edges


def probe_edges(total: int, stride: int) -> list[int]:
    """The request counts a ``total``-request replay with metadata probe
    interval ``stride`` probes at: after request indices 0, stride,
    2·stride, ..., then once more at the end."""
    return [*range(1, total + 1, stride), total]


@pytest.mark.parametrize("name", known_policies())
def test_invariants_hold_at_every_chunk_edge(name, corpus_traces):
    for trace, capacity, policy_kwargs in corpus_traces:
        policy = build_policy(name, capacity, **policy_kwargs.get(name, {}))
        edges = invariant_checker(policy, trace.sizes)
        stride = random.Random(f"{trace.name}/{name}").randrange(1, 100)
        simulate(policy, trace, metadata_probe_interval=stride)
        assert edges == probe_edges(len(trace), stride)


@pytest.fixture(scope="module")
def resized_trace() -> tuple[PackedTrace, int]:
    """An IRM trace where one request in ten, on average, gives its
    content a new size that later requests carry, and a capacity of a
    tenth of its unique bytes."""
    base = PackedTrace.from_trace(
        irm_trace(6000, 600, alpha=0.9, mean_size=1 << 14, size_sigma=1.2, seed=24)
    )
    rng = np.random.default_rng(24)
    resized = rng.random(len(base)) < 0.1
    new_sizes = rng.integers(1, 1 << 16, len(base)).tolist()
    current: dict[int, int] = {}
    sizes = []
    for i, (obj_id, size) in enumerate(zip(base.obj_ids.tolist(), base.sizes.tolist())):
        if resized[i]:
            current[obj_id] = new_sizes[i]
        sizes.append(current.get(obj_id, size))
    trace = PackedTrace.from_arrays(base.times, base.obj_ids, sizes, name="resized")
    last_size = dict(zip(trace.obj_ids.tolist(), trace.sizes.tolist()))
    return trace, sum(last_size.values()) // 10


@pytest.mark.parametrize("name", known_policies())
def test_invariants_hold_when_contents_change_size(name, resized_trace):
    trace, capacity = resized_trace
    policy = build_policy(name, capacity, **GOLDEN["policy_kwargs"].get(name, {}))
    edges = invariant_checker(policy, trace.sizes)
    simulate(policy, trace, metadata_probe_interval=97)
    assert edges == probe_edges(len(trace), 97)
