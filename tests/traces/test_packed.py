"""PackedTrace round-trips, validation, and shared-memory transport."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.traces.packed import (
    PackedTrace,
    SharedTraceBuffers,
    attach_shared_trace,
    live_segment_names,
)
from repro.traces.request import Trace


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

    def test_scalar_columns_cached_and_exact(self, tiny_trace):
        packed = PackedTrace.from_trace(tiny_trace)
        obj_ids, sizes, times = packed.scalar_columns()
        assert obj_ids == [req.obj_id for req in tiny_trace]
        assert sizes == [req.size for req in tiny_trace]
        assert times == [req.time for req in tiny_trace]
        assert packed.scalar_columns() is packed.scalar_columns()

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
        with pytest.raises(ValueError, match="time must be non-negative"):
            PackedTrace.from_arrays([-1.0], [1], [10])

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_from_arrays_rejects_non_finite_time(self, time):
        with pytest.raises(ValueError, match="request 1: time must be non-negative and finite"):
            PackedTrace.from_arrays([0.0, time, 1.0], [1, 2, 3], [10, 10, 10])

    def test_from_arrays_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size must be positive"):
            PackedTrace.from_arrays([0.0, 1.0], [1, 2], [10, 0])

    def test_from_arrays_accepts_plain_lists(self):
        packed = PackedTrace.from_arrays([0.0, 1.5], [7, 8], [100, 200], name="ok")
        assert packed.unpack()[1].size == 200


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
