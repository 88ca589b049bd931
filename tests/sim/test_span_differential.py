"""Differential properties: ``replay_span`` and ``simulate`` against
``request``.

Span kernels are the only native replay code, so this suite guards them
on random small traces rather than on fixtures.  Every registered policy
replays each generated trace twice — once per request through
``request``, once through ``replay_span`` over random chunk boundaries —
and both copies must end in the same state.  The generated cases reach
the edges fixtures miss: ids from a small pool (repeats inside one
chunk), ids spread over the whole int64 range in about one trace in
four (negative, and at least 2**62, where hashing a column of keys could
part from hashing one key), sizes equal to the capacity and one byte
over it, chunks of one request and one chunk over the whole trace, and,
for the LHR family, windows short enough to close and retrain the model
inside a chunk.  B-LRU rotates its filter after four distinct keys, which
happens inside a chunk in about three traces in ten.

One level up, the engine's bookkeeping (windows, warmup and metadata
probes) is checked the same way: ``simulate`` on the generated traces
against the per-request oracle in ``tests/sim/test_fastpath.py``, down
to one-request windows and intervals and zero warmup.
"""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import known_policies, simulate
from repro.sim.runner import build_policy
from repro.traces.packed import PackedTrace
from repro.traces.request import Request, Trace
from tests.sim.test_fastpath import POLICY_KWARGS, _oracle

#: LHR windows close after 8 requests once their unique bytes reach the
#: capacity, so about half of the generated traces retrain, most of them
#: inside a chunk; one-row leaves let a model fit on so few rows tell
#: contents apart.
LHR_KWARGS = {
    "min_window_requests": 8,
    "window_multiple": 1.0,
    "gbm_params": {"n_estimators": 8, "max_depth": 3, "min_samples_leaf": 1},
}

KWARGS = {
    **POLICY_KWARGS,
    **{name: LHR_KWARGS for name in ("lhr", "d-lhr", "n-lhr")},
    "b-lru": {"rotation_items": 4},
}

#: Ids drawn over the whole int64 range, weighted toward its edges.
WIDE_IDS = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**62, max_value=2**63 - 1),
    st.integers(min_value=-(2**63), max_value=-1),
)


@st.composite
def cases(draw):
    """``(capacity, (times, obj_ids, sizes), chunk stops)``."""
    capacity = draw(st.integers(min_value=16, max_value=400))
    pool = draw(st.integers(min_value=1, max_value=24))
    # One size per id (policies key state on the id): small, so several
    # objects share the cache, except up to two ids of exactly
    # ``capacity`` or ``capacity + 1`` bytes.
    size_of = draw(
        st.lists(
            st.integers(min_value=1, max_value=capacity // 4),
            min_size=pool,
            max_size=pool,
        )
    )
    edge_slots = draw(st.sets(st.integers(min_value=0, max_value=pool - 1), max_size=2))
    for slot in edge_slots:
        size_of[slot] = draw(st.sampled_from([capacity, capacity + 1]))
    # An explicit length: hypothesis's own list lengths center on a few
    # elements, too short for evictions to compound.
    total = draw(st.integers(min_value=1, max_value=80))
    slots = draw(
        st.lists(
            st.integers(min_value=0, max_value=pool - 1),
            min_size=total,
            max_size=total,
        )
    )
    # The pool's ids: 0 .. pool - 1, or as many distinct wide ids.
    ids_of = draw(
        st.one_of(
            st.just(list(range(pool))),
            st.lists(WIDE_IDS, min_size=pool, max_size=pool, unique=True),
        )
    )
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 0.25, 1.0, 9.0]), min_size=total, max_size=total
        )
    )
    times = list(accumulate(gaps))
    chunking = draw(st.sampled_from(["ones", "whole", "random"]))
    if chunking == "ones":
        stops = list(range(1, total + 1))
    elif chunking == "whole":
        stops = [total]
    else:
        cuts = draw(st.sets(st.integers(min_value=1, max_value=total)))
        stops = sorted(cuts | {total})
    sizes = [size_of[slot] for slot in slots]
    obj_ids = [ids_of[slot] for slot in slots]
    return capacity, (times, obj_ids, sizes), stops


def _state(policy) -> dict:
    return {
        "hits": policy.hits,
        "misses": policy.misses,
        "hit_bytes": policy.hit_bytes,
        "miss_bytes": policy.miss_bytes,
        "evictions": policy.evictions,
        "admissions": policy.admissions,
        "used_bytes": policy.used_bytes,
        "cached_objects": policy.cached_objects(),
        "metadata_bytes": policy.metadata_bytes(),
    }


def _replay_both(name, capacity, columns, stops):
    times, obj_ids, sizes = columns
    reference = build_policy(name, capacity, **KWARGS.get(name, {}))
    for i, (time, obj_id, size) in enumerate(zip(times, obj_ids, sizes)):
        reference.request(Request(time, obj_id, size, i))
    spanned = build_policy(name, capacity, **KWARGS.get(name, {}))
    packed = PackedTrace.from_arrays(times, obj_ids, sizes)
    cols = packed.obj_ids, packed.sizes, packed.times
    begin = 0
    for stop in stops:
        spanned.replay_span(*cols, begin, stop)
        begin = stop
    return reference, spanned


@pytest.mark.parametrize("name", known_policies())
@settings(max_examples=25, deadline=None)
@given(case=cases())
def test_replay_span_matches_request(name, case):
    capacity, columns, stops = case
    reference, spanned = _replay_both(name, capacity, columns, stops)
    assert _state(spanned) == _state(reference)


@pytest.mark.parametrize("name", ["lhr", "d-lhr", "n-lhr"])
def test_lhr_family_retrains_inside_one_chunk(name):
    """The LHR settings above retrain inside a single span, and the model
    they fit decides admissions: two small hot contents among large
    one-offs, which the first model already rejects.  A kernel that kept
    scoring the span's tail with the model it started with would admit
    every one-off."""
    obj_ids = [(i // 3) % 2 if i % 3 == 0 else 1000 + i for i in range(60)]
    sizes = [5 if obj_id < 1000 else 90 for obj_id in obj_ids]
    columns = ([float(i) for i in range(60)], obj_ids, sizes)
    reference, spanned = _replay_both(name, 100, columns, [60])
    assert spanned.windows_processed >= 2
    assert spanned.trainings >= 1
    assert reference.admissions < len(set(obj_ids))
    assert _state(spanned) == _state(reference)


def _interval(total):
    """An engine interval: off, every request, or a random stride."""
    return st.one_of(
        st.just(0), st.just(1), st.integers(min_value=2, max_value=total + 2)
    )


@st.composite
def engine_cases(draw):
    """``(capacity, columns, replay arguments)`` for ``simulate``."""
    capacity, columns, _ = draw(cases())
    total = len(columns[0])
    warmup = st.integers(min_value=1, max_value=total - 1) if total > 1 else st.just(0)
    args = {
        "window_requests": draw(_interval(total)),
        "warmup_requests": draw(st.one_of(st.just(0), warmup)),
        "metadata_probe_interval": draw(_interval(total)),
    }
    return capacity, columns, args


def _record_probes(policy, probes):
    """Log where each metadata probe fires, in requests replayed so far:
    a probe off the rule rarely moves the peak on traces this small."""
    metadata_bytes = policy.metadata_bytes

    def probe():
        probes.append(policy.hits + policy.misses)
        return metadata_bytes()

    policy.metadata_bytes = probe


@pytest.mark.parametrize("name", ["lru", "lru-2", "lfu-da", "b-lru", "gdsf", "lhr"])
@settings(max_examples=60, deadline=None)
@given(case=engine_cases())
def test_simulate_matches_request_oracle(name, case):
    capacity, (times, obj_ids, sizes), args = case
    trace = Trace(
        [Request(*request) for request in zip(times, obj_ids, sizes)], name="case"
    )
    runs = []
    packed = PackedTrace.from_trace(trace)
    for replay, replayed in ((_oracle, trace), (simulate, packed)):
        policy = build_policy(name, capacity, **KWARGS.get(name, {}))
        probes = []
        _record_probes(policy, probes)
        result = replay(policy, replayed, **args)
        windows = [
            (w.index, w.requests, w.hits, w.hit_bytes, w.total_bytes, w.evictions)
            for w in result.windows
        ]
        runs.append((result.counters(), windows, result.peak_metadata_bytes, probes))
    assert runs[1] == runs[0]
