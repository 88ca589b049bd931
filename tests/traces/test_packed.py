"""PackedTrace round-trips, validation, and shared-memory transport."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.loader import load_trace_csv, load_trace_webcachesim
from repro.traces.packed import (
    PackedTrace,
    SharedTraceBuffers,
    attach_shared_trace,
    live_segment_names,
)
from repro.traces.request import Request, Trace


class TestPackedRoundTrip:
    def test_from_trace_unpack_is_identity(self, production_trace):
        packed = PackedTrace.from_trace(production_trace)
        rebuilt = packed.unpack()
        assert rebuilt.name == production_trace.name
        assert rebuilt.metadata == production_trace.metadata
        assert len(rebuilt) == len(production_trace)
        for original, restored in zip(production_trace, rebuilt):
            assert restored == original

    def test_unpacked_requests_carry_indices(self, tiny_trace):
        rebuilt = PackedTrace.from_trace(tiny_trace).unpack()
        assert [req.index for req in rebuilt] == list(range(len(tiny_trace)))

    def test_column_dtypes(self, tiny_trace):
        packed = PackedTrace.from_trace(tiny_trace)
        assert packed.times.dtype == np.float64
        assert packed.obj_ids.dtype == np.int64
        assert packed.sizes.dtype == np.int64

    def test_scalar_columns_exact(self, tiny_trace):
        packed = PackedTrace.from_trace(tiny_trace)
        obj_ids, sizes, times = packed.scalar_columns()
        assert obj_ids == [req.obj_id for req in tiny_trace]
        assert sizes == [req.size for req in tiny_trace]
        assert times == [req.time for req in tiny_trace]

    def test_iter_scalars_order(self, tiny_trace):
        packed = PackedTrace.from_trace(tiny_trace)
        triples = list(packed.iter_scalars())
        assert triples == [(r.obj_id, r.size, r.time) for r in tiny_trace]

    def test_pickle_drops_scalar_cache(self, tiny_trace):
        packed = PackedTrace.from_trace(tiny_trace)
        packed.scalar_columns()
        clone = pickle.loads(pickle.dumps(packed))
        assert "_scalars" not in clone.__dict__
        assert clone.scalar_columns() == packed.scalar_columns()

    def test_empty_trace(self):
        packed = PackedTrace.from_trace(Trace([], name="empty"))
        assert len(packed) == 0
        assert len(packed.unpack()) == 0


class TestPackedValidation:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="disagree on length"):
            PackedTrace(
                np.zeros(3), np.zeros(2, np.int64), np.ones(3, np.int64), "bad"
            )

    def test_obj_id_overflow_names_request(self):
        with pytest.raises(ValueError, match=r"request 1: obj_id=.* int64"):
            PackedTrace.from_arrays(
                [0.0, 1.0], [1, 2**64], [10, 10], name="overflow"
            )

    def test_size_overflow_names_request(self):
        with pytest.raises(ValueError, match=r"request 0: size=.* int64"):
            PackedTrace.from_arrays([0.0], [1], [2**63], name="overflow")

    def test_from_arrays_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time must be finite and non-negative"):
            PackedTrace.from_arrays([-1.0], [1], [10])

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_from_arrays_rejects_non_finite_time(self, time):
        with pytest.raises(ValueError, match="request 1: time must be finite and non-negative"):
            PackedTrace.from_arrays([0.0, time, 1.0], [1, 2, 3], [10, 10, 10])

    def test_from_arrays_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size must be positive"):
            PackedTrace.from_arrays([0.0, 1.0], [1, 2], [10, 0])

    def test_from_arrays_accepts_plain_lists(self):
        packed = PackedTrace.from_arrays([0.0, 1.5], [7, 8], [100, 200], name="ok")
        assert packed.unpack()[1].size == 200


#: One way to break each rule of the trace contract at a request:
#: ``(column, bad value given the previous time, message fragment, whether
#: a Request can hold it)``.  ``from_trace`` only ever sees the last kind.
BREAKS = {
    "nan time": (0, lambda _: math.nan, "finite and non-negative", False),
    "inf time": (0, lambda _: math.inf, "finite and non-negative", False),
    "-inf time": (0, lambda _: -math.inf, "finite and non-negative", False),
    "negative time": (0, lambda _: -0.5, "finite and non-negative", False),
    "decreasing time": (0, lambda previous: previous - 0.5, "decreases from", True),
    "zero size": (2, lambda _: 0, "size must be positive", False),
    "negative size": (2, lambda _: -7, "size must be positive", False),
    "fractional size": (2, lambda _: 0.5, "size=0.5 is not an integer", True),
    "fractional id": (1, lambda _: 1.7, "obj_id=1.7 is not an integer", True),
    "id above int64": (1, lambda _: 2**63, "fits int64", True),
    "id below int64": (1, lambda _: -(2**63) - 1, "fits int64", True),
    "size above int64": (2, lambda _: 2**63, "fits int64", True),
}


@st.composite
def contract_cases(draw):
    """Valid columns, and possibly one rule broken at request ``bad``."""
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.25, 3.0]), min_size=n, max_size=n))
    times = np.cumsum([1.0] + gaps[1:]).tolist()
    columns = [
        times,
        draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n)),
        draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n)),
    ]
    rule = draw(st.none() | st.sampled_from(sorted(BREAKS)))
    bad = draw(st.integers(int(rule == "decreasing time"), n - 1)) if rule else None
    if rule:
        column, value, _, _ = BREAKS[rule]
        columns[column][bad] = value(times[bad - 1])
    # Blank lines a webcachesim file may hold between rows.
    blanks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return columns, rule, bad, blanks


def _write(directory, columns, blanks):
    """``columns`` as a CSV and a webcachesim file, with the file line
    of each request in each."""
    rows = [" ".join(map(repr, row)) for row in zip(*columns)]
    csv_path = directory / "trace.csv"
    csv_rows = "".join(row.replace(" ", ",") + "\n" for row in rows)
    csv_path.write_text("time,obj_id,size\n" + csv_rows)
    lines, text = [], ""
    for row, blank in zip(rows, blanks):
        text += "\n" * blank
        lines.append(text.count("\n") + 1)
        text += row + "\n"
    tr_path = directory / "trace.tr"
    tr_path.write_text(text)
    return [
        (load_trace_csv, csv_path, list(range(2, len(rows) + 2))),
        (load_trace_webcachesim, tr_path, lines),
    ]


class TestTraceContract:
    """Every boundary where outside data becomes a trace checks the same
    contract and names the request (or ``path:line``) that breaks it."""

    @settings(max_examples=150, deadline=None)
    @given(case=contract_cases())
    def test_every_boundary_enforces_the_contract(self, tmp_path_factory, case):
        columns, rule, bad, blanks = case
        packers = [lambda: PackedTrace.from_arrays(*columns)]
        if rule is None or BREAKS[rule][3]:
            trace = Trace([Request(*row) for row in zip(*columns)])
            packers.append(lambda: PackedTrace.from_trace(trace))
        loaders = _write(tmp_path_factory.mktemp("contract"), columns, blanks)
        if rule is None:
            expected = Trace.from_tuples(zip(*columns)).requests
            for pack in packers:
                assert pack().unpack().requests == expected
            for load, path, _ in loaders:
                assert load(path).requests == expected
            return
        fragment = BREAKS[rule][2]
        for pack in packers:
            with pytest.raises(ValueError, match=fragment) as caught:
                pack()
            assert str(caught.value).startswith(f"request {bad}: ")
        for load, path, lines in loaders:
            with pytest.raises(ValueError) as caught:
                load(path)
            assert str(caught.value).startswith(f"{path}:{lines[bad]}: ")
            # A loader parses ids and sizes as integers, so a fractional
            # one fails to parse instead.
            assert "fractional" in rule or fragment in str(caught.value)


class TestSharedTraceBuffers:
    def test_attach_sees_identical_columns(self, production_trace):
        packed = PackedTrace.from_trace(production_trace)
        shared = SharedTraceBuffers.create(packed)
        try:
            assert shared.descriptor.segment in live_segment_names()
            view, shm = attach_shared_trace(shared.descriptor)
            try:
                np.testing.assert_array_equal(view.times, packed.times)
                np.testing.assert_array_equal(view.obj_ids, packed.obj_ids)
                np.testing.assert_array_equal(view.sizes, packed.sizes)
                assert view.name == packed.name
                assert not view.times.flags.writeable
            finally:
                shm.close()
        finally:
            shared.release()
        assert shared.descriptor.segment not in live_segment_names()

    def test_release_is_idempotent(self, tiny_trace):
        shared = SharedTraceBuffers.create(PackedTrace.from_trace(tiny_trace))
        shared.release()
        shared.release()
        assert shared.released
        assert live_segment_names() == ()

    def test_empty_trace_round_trips(self):
        shared = SharedTraceBuffers.create(
            PackedTrace.from_trace(Trace([], name="empty"))
        )
        try:
            view, shm = attach_shared_trace(shared.descriptor)
            assert len(view) == 0
            shm.close()
        finally:
            shared.release()

    def test_descriptor_pickles(self, tiny_trace):
        shared = SharedTraceBuffers.create(PackedTrace.from_trace(tiny_trace))
        try:
            clone = pickle.loads(pickle.dumps(shared.descriptor))
            assert clone == shared.descriptor
        finally:
            shared.release()
