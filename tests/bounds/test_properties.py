"""Property-based bound relationships on random traces.

These encode the provable orderings:

* InfiniteCap dominates every bound and every policy.
* Bélády (unit size) dominates any unit-size online policy.
* PFOO-U dominates Bélády-size: every Bélády-size hit keeps its reuse
  interval fully resident, so the total footprint of its hit set fits the
  average-occupancy budget PFOO-U optimizes over.
* PFOO-L <= PFOO-U (feasible packing vs relaxation of the same problem).
* HRO <= InfiniteCap.
* PFOO-U and Bélády (unit size) never lose hits as the cache grows.
  Bélády-size can: it is a greedy heuristic, and a larger cache can let
  it admit a large object whose one hit costs two small objects' hits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import (
    belady_size,
    belady_unit,
    infinite_cap,
    pfoo_lower,
    pfoo_upper,
)
from repro.core import hro_bound
from repro.policies.classic import FifoCache, LruCache
from repro.traces.request import Request, Trace

trace_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),  # obj id
        st.integers(min_value=1, max_value=30),  # size
    ),
    min_size=2,
    max_size=100,
)

capacities = st.integers(min_value=5, max_value=150)


def build_trace(rows, unit_size=False):
    sizes: dict[int, int] = {}
    requests = []
    for i, (obj_id, size) in enumerate(rows):
        size = 1 if unit_size else sizes.setdefault(obj_id, size)
        requests.append(Request(float(i), obj_id, size, i))
    return Trace(requests, name="prop")


@settings(max_examples=80, deadline=None)
@given(rows=trace_rows, capacity=capacities)
def test_infinite_cap_dominates_all_bounds(rows, capacity):
    trace = build_trace(rows)
    ceiling = infinite_cap(trace.requests)
    assert pfoo_upper(trace.requests, capacity).hits <= ceiling.hits
    assert pfoo_lower(trace.requests, capacity).hits <= ceiling.hits
    assert belady_size(trace.requests, capacity).hits <= ceiling.hits
    bound = hro_bound(trace, capacity)
    assert bound.hits <= ceiling.hits


@settings(max_examples=80, deadline=None)
@given(rows=trace_rows, frames=st.integers(min_value=1, max_value=12))
def test_belady_unit_dominates_online_unit_policies(rows, frames):
    trace = build_trace(rows, unit_size=True)
    opt = belady_unit(trace.requests, frames)
    for policy_cls in (LruCache, FifoCache):
        policy = policy_cls(frames)
        policy.process(trace)
        assert opt.hits >= policy.hits


@settings(max_examples=80, deadline=None)
@given(rows=trace_rows, capacity=capacities)
def test_pfoo_upper_dominates_belady_size(rows, capacity):
    trace = build_trace(rows)
    assert (
        pfoo_upper(trace.requests, capacity).hits
        >= belady_size(trace.requests, capacity).hits
    )


@settings(max_examples=80, deadline=None)
@given(rows=trace_rows, capacity=capacities)
def test_pfoo_sandwich(rows, capacity):
    trace = build_trace(rows)
    assert (
        pfoo_lower(trace.requests, capacity, bucket_requests=1).hits
        <= pfoo_upper(trace.requests, capacity).hits
    )


@settings(max_examples=60, deadline=None)
@given(rows=trace_rows, capacity=capacities)
def test_bounds_are_deterministic(rows, capacity):
    trace = build_trace(rows)
    first = belady_size(trace.requests, capacity)
    second = belady_size(trace.requests, capacity)
    assert first.hits == second.hits
    assert first.hit_bytes == second.hit_bytes


@settings(max_examples=60, deadline=None)
@given(rows=trace_rows)
def test_byte_accounting_consistent(rows):
    trace = build_trace(rows)
    total = trace.total_bytes()
    for result in (
        infinite_cap(trace.requests),
        belady_size(trace.requests, 50),
        pfoo_upper(trace.requests, 50),
        pfoo_lower(trace.requests, 50),
    ):
        assert result.total_bytes == total
        assert 0 <= result.hit_bytes <= total
        assert 0 <= result.hits <= result.requests == len(trace)


@settings(max_examples=40, deadline=None)
@given(
    rows=trace_rows,
    small=st.integers(min_value=5, max_value=40),
    extra=st.integers(min_value=1, max_value=100),
    frames=st.integers(min_value=1, max_value=12),
    more=st.integers(min_value=1, max_value=12),
)
def test_bounds_monotone_in_capacity(rows, small, extra, frames, more):
    """More bytes never cost PFOO-U a hit, nor more frames Bélády."""
    trace = build_trace(rows)
    assert (
        pfoo_upper(trace.requests, small + extra).hits
        >= pfoo_upper(trace.requests, small).hits
    )
    unit = build_trace(rows, unit_size=True)
    assert (
        belady_unit(unit.requests, frames + more).hits
        >= belady_unit(unit.requests, frames).hits
    )


def test_belady_size_is_not_monotone_in_capacity():
    """At 5 bytes objects 0 and 1 stay cached and both are hit; at 28
    bytes Bélády-size evicts them to admit object 2, which is hit once."""
    trace = build_trace([(0, 1), (1, 1), (2, 28), (2, 1), (0, 1), (1, 1)])
    assert [req.size for req in trace.requests] == [1, 1, 28, 28, 1, 1]
    assert belady_size(trace.requests, 5).hits == 2
    assert belady_size(trace.requests, 28).hits == 1
