"""Request and Trace records: validation, indexing, accounting."""

import copy
import dataclasses
import pickle

import pytest

from repro.traces.packed import PackedTrace
from repro.traces.request import Request, Trace


class TestRequest:
    def test_fields(self):
        req = Request(time=1.5, obj_id=7, size=100, index=3)
        assert (req.time, req.obj_id, req.size, req.index) == (1.5, 7, 100, 3)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            Request(time=0.0, obj_id=1, size=0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Request(time=-1.0, obj_id=1, size=1)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_time(self, time):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Request(time=time, obj_id=1, size=1)

    def test_immutability(self):
        req = Request(time=0.0, obj_id=1, size=1)
        with pytest.raises(AttributeError):
            req.size = 2

    def test_positional_and_keyword_forms_agree(self):
        req = Request(1.5, 7, 100, 3)
        assert req == Request(time=1.5, obj_id=7, size=100, index=3)
        assert Request(1.5, 7, 100).index == -1
        assert repr(req) == "Request(time=1.5, obj_id=7, size=100, index=3)"

    def test_value_semantics(self):
        req = Request(1.5, 7, 100, 3)
        twin = Request(1.5, 7, 100, 3)
        assert req == twin and req is not twin
        assert hash(req) == hash(twin)
        assert len({req, twin}) == 1
        assert req != Request(1.5, 7, 100, 4)
        assert not hasattr(req, "__dict__")

    def test_pickle_and_copy_round_trip(self):
        req = Request(1.5, 7, 100, 3)
        for clone in (
            pickle.loads(pickle.dumps(req)),
            copy.copy(req),
            copy.deepcopy(req),
        ):
            assert clone == req
            with pytest.raises(AttributeError):
                clone.size = 2

    def test_replace_and_fields(self):
        req = Request(1.5, 7, 100, 3)
        assert dataclasses.replace(req, size=5) == Request(1.5, 7, 5, 3)
        assert [f.name for f in dataclasses.fields(req)] == [
            "time", "obj_id", "size", "index",
        ]
        with pytest.raises(ValueError, match="size must be positive"):
            dataclasses.replace(req, size=0)

    def test_size_is_checked_before_time(self):
        with pytest.raises(ValueError, match="size must be positive, got 0"):
            Request(time=-1.0, obj_id=1, size=0)


class TestTrace:
    def test_from_tuples_assigns_indices(self):
        trace = Trace.from_tuples([(0.0, 1, 10), (1.0, 2, 20)])
        assert [req.index for req in trace] == [0, 1]

    @pytest.mark.parametrize(
        "row, match",
        [
            ((1.0, 1.7, 1.5), "request 1: obj_id=1.7 is not an integer that fits int64"),
            ((1.0, 3, 1.5), "request 1: size=1.5 is not an integer that fits int64"),
            ((1.0, 2**63, 10), "request 1: obj_id=9223372036854775808 is not an integer"),
            ((1.0, 3, float("nan")), "request 1: size=nan is not an integer"),
        ],
        ids=["fractional-id", "fractional-size", "id-above-int64", "nan-size"],
    )
    def test_from_tuples_rejects_what_it_would_truncate(self, row, match):
        with pytest.raises(ValueError, match=match):
            Trace.from_tuples([(0.0, 1, 10), row])

    def test_from_tuples_keeps_integral_floats(self):
        trace = Trace.from_tuples([(0.0, 2.0, 10.0), (1.0, -(2**63), 3)])
        assert [(req.obj_id, req.size) for req in trace] == [(2, 10), (-(2**63), 3)]
        assert PackedTrace.from_trace(trace).obj_ids.tolist() == [2, -(2**63)]

    def test_constructor_reindexes(self):
        reqs = [Request(0.0, 1, 10), Request(1.0, 2, 20)]
        trace = Trace(reqs)
        assert [req.index for req in trace] == [0, 1]

    def test_len_and_getitem(self):
        trace = Trace.from_tuples([(0.0, 1, 10), (1.0, 2, 20), (2.0, 1, 10)])
        assert len(trace) == 3
        assert trace[1].obj_id == 2

    def test_slice_returns_trace(self):
        trace = Trace.from_tuples([(float(i), i, 10) for i in range(5)], name="t")
        head = trace[:2]
        assert isinstance(head, Trace)
        assert len(head) == 2
        assert head.name == "t"

    def test_duration(self):
        trace = Trace.from_tuples([(1.0, 1, 10), (5.0, 2, 10)])
        assert trace.duration == 4.0

    def test_duration_degenerate(self):
        assert Trace.from_tuples([(1.0, 1, 10)]).duration == 0.0
        assert Trace([]).duration == 0.0

    def test_unique_contents_and_bytes(self):
        trace = Trace.from_tuples([(0.0, 1, 10), (1.0, 2, 20), (2.0, 1, 10)])
        assert trace.unique_contents() == {1: 10, 2: 20}
        assert trace.unique_bytes() == 30
        assert trace.total_bytes() == 40

    # A trace is validated by the contract ``PackedTrace.from_trace`` checks.
    def test_validate_accepts_well_formed(self, tiny_trace):
        packed = PackedTrace.from_trace(tiny_trace)
        assert packed.unpack().requests == tiny_trace.requests

    def test_validate_rejects_time_regression(self):
        trace = Trace.from_tuples([(2.0, 1, 10), (1.0, 2, 10)])
        with pytest.raises(ValueError, match="request 1: time 1.0 decreases from 2.0"):
            PackedTrace.from_trace(trace)

    def test_validate_rejects_size_change(self):
        # A content may change size (every policy conserves its counters
        # when one does, tests/sim/test_invariants.py), but only to a size
        # the contract accepts.
        resized = Trace.from_tuples([(0.0, 1, 10), (1.0, 1, 20)])
        assert PackedTrace.from_trace(resized).sizes.tolist() == [10, 20]
        fractional = Trace([Request(0.0, 1, 10), Request(1.0, 1, 2.5)])
        with pytest.raises(ValueError, match="request 1: size=2.5 is not an integer"):
            PackedTrace.from_trace(fractional)
