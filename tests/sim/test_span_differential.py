"""Differential properties: ``replay_span`` against ``request``.

Span kernels are the only native replay code, so this suite guards them
on random small traces rather than on fixtures.  Every registered policy
replays each generated trace twice — once per request through
``request``, once through ``replay_span`` over random chunk boundaries —
and both copies must end in the same state.  The generated cases reach
the edges fixtures miss: ids from a small pool (repeats inside one
chunk), sizes equal to the capacity and one byte over it, chunks of one
request and one chunk over the whole trace, and, for the LHR family,
windows short enough to close and retrain the model inside a chunk.
"""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import known_policies
from repro.sim.runner import build_policy
from repro.traces.packed import PackedTrace
from repro.traces.request import Request
from tests.sim.test_fastpath import POLICY_KWARGS

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
}


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
    edge_ids = draw(st.sets(st.integers(min_value=0, max_value=pool - 1), max_size=2))
    for obj_id in edge_ids:
        size_of[obj_id] = draw(st.sampled_from([capacity, capacity + 1]))
    # An explicit length: hypothesis's own list lengths center on a few
    # elements, too short for evictions to compound.
    total = draw(st.integers(min_value=1, max_value=80))
    obj_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=pool - 1),
            min_size=total,
            max_size=total,
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
    sizes = [size_of[obj_id] for obj_id in obj_ids]
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
    cols = PackedTrace.from_arrays(times, obj_ids, sizes).scalar_columns()
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
