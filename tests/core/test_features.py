"""FeatureStore: IRT semantics (Section 5.2.1) and pruning."""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.features import DEFAULT_MISSING, FeatureStore, feature_dim
from repro.traces.request import Request


def req(obj_id, time, size=100):
    return Request(time=time, obj_id=obj_id, size=size)


class TestFeatureDim:
    def test_dimension(self):
        assert feature_dim(20) == 23  # 20 IRTs + 3 static features


class TestVectorSemantics:
    def test_rejects_bad_max_irts(self):
        with pytest.raises(ValueError):
            FeatureStore(max_irts=0)

    def test_unknown_content_all_missing(self):
        store = FeatureStore()
        row = store.vector(99, now=10.0, num_irts=5)
        assert (row[:5] == DEFAULT_MISSING).all()
        assert (row[5:] == 0.0).all()

    def test_irt1_is_time_since_last_request(self):
        store = FeatureStore()
        store.observe(req(1, time=10.0))
        row = store.vector(1, now=17.5, num_irts=5)
        assert row[0] == pytest.approx(7.5)

    def test_irt_chain_matches_paper_definition(self):
        # IRT_2 is the gap between the previous two requests, IRT_3 the
        # one before, etc.
        store = FeatureStore()
        for t in (0.0, 1.0, 4.0, 9.0):  # gaps 1, 3, 5
            store.observe(req(1, time=t))
        row = store.vector(1, now=11.0, num_irts=5)
        assert row[0] == pytest.approx(2.0)  # now - last
        assert row[1] == pytest.approx(5.0)  # most recent stored gap
        assert row[2] == pytest.approx(3.0)
        assert row[3] == pytest.approx(1.0)
        assert row[4] == DEFAULT_MISSING  # only 3 gaps exist

    def test_static_features(self):
        store = FeatureStore()
        store.observe(req(1, time=2.0, size=1000))
        store.observe(req(1, time=5.0, size=1000))
        row = store.vector(1, now=6.0, num_irts=2)
        assert row[2] == pytest.approx(np.log1p(1000))  # log size
        assert row[3] == 2  # request count
        assert row[4] == pytest.approx(4.0)  # age since first request

    def test_num_irts_bounds(self):
        store = FeatureStore(max_irts=8)
        store.observe(req(1, time=0.0))
        with pytest.raises(ValueError):
            store.vector(1, now=1.0, num_irts=9)
        with pytest.raises(ValueError):
            store.vector(1, now=1.0, num_irts=0)

    def test_gap_buffer_bounded_by_max_irts(self):
        store = FeatureStore(max_irts=4)
        for t in range(20):
            store.observe(req(1, time=float(t)))
        row = store.vector(1, now=20.0, num_irts=4)
        assert row[:4] == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_figure6_sweep_dimensions(self):
        # The Figure 6 ablation reads 10/20/30 IRT vectors off one store.
        store = FeatureStore(max_irts=32)
        store.observe(req(1, time=0.0))
        for k in (10, 20, 30):
            assert store.vector(1, now=1.0, num_irts=k).shape == (feature_dim(k),)

    def test_ring_buffer_matches_deque_semantics_at_every_step(self):
        """The preallocated ring must reproduce appendleft order exactly,
        including across the wraparound point — checked against a naive
        list model after every observation."""
        max_irts = 5
        store = FeatureStore(max_irts=max_irts)
        model = deque(maxlen=max_irts - 1)  # most recent gap first
        times = [0.0, 0.5, 2.0, 2.25, 7.0, 7.5, 10.0, 11.0, 11.5, 20.0, 21.0]
        last = None
        for t in times:
            store.observe(req(1, time=t))
            if last is not None:
                model.appendleft(t - last)
            last = t
            row = store.vector(1, now=t + 1.0, num_irts=max_irts)
            expected = list(model) + [DEFAULT_MISSING] * (
                max_irts - 1 - len(model)
            )
            assert row[0] == pytest.approx(1.0)
            assert row[1:max_irts] == pytest.approx(expected)

    def test_vector_wraparound_split_copy(self):
        """A read that straddles the ring's physical end uses two slice
        copies; both halves must land in the right order."""
        store = FeatureStore(max_irts=4)  # 3 gap slots
        # Gaps pushed: 1, 2, 4, 8 — the ring holds [8, 4, 2] logically,
        # with the head somewhere mid-buffer after the fourth push.
        for t in (0.0, 1.0, 3.0, 7.0, 15.0):
            store.observe(req(1, time=t))
        row = store.vector(1, now=16.0, num_irts=4)
        assert row[:4] == pytest.approx([1.0, 8.0, 4.0, 2.0])


class TestAccessors:
    def test_last_access_and_count(self):
        store = FeatureStore()
        assert store.last_access(1) is None
        assert store.request_count(1) == 0
        store.observe(req(1, time=3.0))
        store.observe(req(1, time=8.0))
        assert store.last_access(1) == 8.0
        assert store.request_count(1) == 2

    def test_contains_and_len(self):
        store = FeatureStore()
        store.observe(req(1, time=0.0))
        store.observe(req(2, time=1.0))
        assert 1 in store and 2 in store and 3 not in store
        assert len(store) == 2


class TestPruning:
    def test_prune_removes_idle_contents(self):
        store = FeatureStore()
        store.observe(req(1, time=0.0))
        store.observe(req(2, time=100.0))
        pruned = store.prune(now=101.0, horizon=50.0)
        assert pruned == 1
        assert 1 not in store and 2 in store

    def test_prune_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            FeatureStore().prune(now=0.0, horizon=0.0)

    def test_metadata_bytes_tracks_population(self):
        store = FeatureStore()
        assert store.metadata_bytes() == 0
        for i in range(10):
            store.observe(req(i, time=float(i)))
        assert store.metadata_bytes() > 0

    def test_incremental_metadata_matches_recomputation(self):
        """``metadata_bytes`` is maintained as a running counter (the
        engine probes it mid-replay); it must equal a from-scratch walk
        of the records after observes, ring saturation, and prunes."""

        def recompute(store):
            return 8 * sum(
                record.length + 4 for record in store._records.values()
            )

        store = FeatureStore(max_irts=3)
        for step in range(30):
            store.observe(req(step % 5, time=float(step)))
            assert store.metadata_bytes() == recompute(store)
        store.observe(req(99, time=100.0))
        store.prune(now=101.0, horizon=50.0)  # drops contents 0..4
        assert 99 in store and len(store) == 1
        assert store.metadata_bytes() == recompute(store)
        store.prune(now=1e6, horizon=1.0)  # drops everything
        assert store.metadata_bytes() == 0 == recompute(store)


class TestFeatureMatrix:
    """``feature_matrix`` (the batched gather behind the batched LHR
    backend) must be bit-identical to the interleaved scalar reference:
    ``vector()`` then ``observe_scalar()`` per request — including
    intra-span repeats — while leaving the store untouched."""

    def _random_span(self, rng, length, ids=8):
        obj_ids = rng.integers(0, ids, size=length).tolist()
        sizes = rng.integers(1, 5000, size=length).tolist()
        times = np.cumsum(rng.random(length)).tolist()
        return obj_ids, sizes, times

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_irts", [3, 10, 20])
    def test_matches_interleaved_scalar_path(self, seed, num_irts):
        rng = np.random.default_rng(seed)
        batched = FeatureStore(max_irts=max(num_irts, 4))
        reference = FeatureStore(max_irts=max(num_irts, 4))
        # Pre-seed both stores identically so span rows compose virtual
        # overlays with *existing* records, not just fresh ones.
        for store in (batched, reference):
            for t in range(12):
                store.observe_scalar(t % 5, 100 + t, float(t))
        obj_ids, sizes, times = self._random_span(rng, 60)
        times = [t + 12.0 for t in times]
        matrix = batched.feature_matrix(
            obj_ids, sizes, times, 0, len(obj_ids), num_irts=num_irts
        )
        for k in range(len(obj_ids)):
            row = reference.vector(obj_ids[k], now=times[k], num_irts=num_irts)
            assert matrix[k].tolist() == row.tolist(), f"row {k} diverges"
            reference.observe_scalar(obj_ids[k], sizes[k], times[k])

    def test_store_is_not_mutated(self):
        store = FeatureStore()
        for t in range(6):
            store.observe_scalar(t % 2, 100, float(t))
        before = {oid: store.vector(oid, now=10.0).tolist() for oid in (0, 1)}
        meta = store.metadata_bytes()
        store.feature_matrix([0, 1, 0, 3], [10, 20, 30, 40], [10.0, 11.0, 12.0, 13.0], 0, 4)
        assert store.metadata_bytes() == meta
        assert 3 not in store
        for oid in (0, 1):
            assert store.vector(oid, now=10.0).tolist() == before[oid]

    def test_sub_span_respects_begin_end(self):
        store = FeatureStore()
        obj_ids = [7, 7, 8, 7]
        sizes = [10, 10, 10, 10]
        times = [0.0, 1.0, 2.0, 3.0]
        matrix = store.feature_matrix(obj_ids, sizes, times, 2, 4)
        # Row 0 of the sub-span is request index 2 (object 8, unseen).
        assert matrix.shape[0] == 2
        assert matrix[0][0] == DEFAULT_MISSING
        # Request 3 sees neither virtual observation from indices 0-1.
        assert matrix[1][0] == DEFAULT_MISSING


class TestRingAllocation:
    def test_contents_seen_once_hold_no_ring(self):
        """A content requested once has no gap, so its record holds no
        gap ring: the store keeps a record and a dict entry per content,
        not a ``max_irts - 1`` float ring (about 480 B each with one)."""
        count = 20_000
        ids = list(range(10_000, 10_000 + count))
        sizes = list(range(1_000, 1_000 + count))
        times = [float(t) for t in range(count)]
        store = FeatureStore(max_irts=32)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for obj_id, size, time in zip(ids, sizes, times):
                store.observe_scalar(obj_id, size, time)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store) == count
        assert store.metadata_bytes() == 8 * 4 * count
        assert retained / count < 200


class _DequeStore:
    """Reference feature store: per content ``[last_time, first_time,
    count, size, gaps]`` with the gaps in a ``deque(maxlen=max_irts -
    1)``, most recent first (``appendleft``)."""

    def __init__(self, max_irts):
        self.max_irts = max_irts
        self.records = {}

    def observe(self, obj_id, size, time):
        record = self.records.get(obj_id)
        if record is None:
            gaps = deque(maxlen=self.max_irts - 1)
            self.records[obj_id] = [time, time, 1, size, gaps]
        else:
            record[4].appendleft(time - record[0])
            record[0] = time
            record[2] += 1

    def vector(self, obj_id, now, num_irts):
        record = self.records.get(obj_id)
        if record is None:
            return [DEFAULT_MISSING] * num_irts + [0.0] * 3
        last, first, count, size, gaps = record
        irts = list(gaps)[: num_irts - 1]
        irts += [DEFAULT_MISSING] * (num_irts - 1 - len(irts))
        return [now - last, *irts, float(np.log1p(size)), float(count), now - first]

    def prune(self, now, horizon):
        stale = [oid for oid, r in self.records.items() if now - r[0] > horizon]
        for oid in stale:
            del self.records[oid]
        return len(stale)

    def metadata_bytes(self):
        return 8 * sum(len(r[4]) + 4 for r in self.records.values())


def _bits(row):
    return np.asarray(row, dtype=np.float64).tobytes()


_arrival = st.tuples(
    st.integers(min_value=0, max_value=7),  # content
    st.floats(min_value=0.0, max_value=20.0),  # gap since the last arrival
    st.integers(min_value=1, max_value=1 << 40),  # size
)
_step = st.one_of(
    st.tuples(st.just("observe"), _arrival),
    st.tuples(st.just("span"), st.lists(_arrival, min_size=1, max_size=12)),
    st.tuples(st.just("prune"), st.floats(min_value=0.01, max_value=60.0)),
)


class TestMatchesDequeReference:
    @settings(max_examples=150, deadline=None)
    @given(
        max_irts=st.integers(min_value=1, max_value=5),
        steps=st.lists(_step, min_size=1, max_size=25),
    )
    @example(  # no gap slots at all: IRT_1 and the static features only
        max_irts=1,
        steps=[
            ("observe", (0, 0.0, 7)),
            ("span", [(0, 2.0, 7), (1, 0.5, 3), (0, 1.0, 7)]),
            ("prune", 0.75),
        ],
    )
    def test_rows_equal_reference_bit_for_bit(self, max_irts, steps):
        """Random observe sequences, spans and prunes: contents seen
        once, first gaps that arrive inside a ``feature_matrix`` span,
        rings that wrap, records pruned and recreated.  Every ``vector``
        and ``feature_matrix`` row equals the deque reference's bit for
        bit, and a record holds a ring exactly when it holds a gap."""
        store = FeatureStore(max_irts=max_irts)
        reference = _DequeStore(max_irts)
        now = 0.0
        for kind, arg in steps:
            if kind == "prune":
                assert store.prune(now, arg) == reference.prune(now, arg)
            elif kind == "observe":
                obj_id, gap, size = arg
                now += gap
                for num_irts in range(1, max_irts + 1):
                    assert _bits(store.vector(obj_id, now, num_irts)) == _bits(
                        reference.vector(obj_id, now, num_irts)
                    )
                store.observe_scalar(obj_id, size, now)
                reference.observe(obj_id, size, now)
            else:
                ids, sizes, times = [], [], []
                for obj_id, gap, size in arg:
                    now += gap
                    ids.append(obj_id)
                    sizes.append(size)
                    times.append(now)
                n = len(ids)
                matrices = [
                    store.feature_matrix(ids, sizes, times, 0, n, num_irts)
                    for num_irts in range(1, max_irts + 1)
                ]
                for k in range(n):
                    for num_irts, matrix in enumerate(matrices, start=1):
                        assert _bits(matrix[k]) == _bits(
                            reference.vector(ids[k], times[k], num_irts)
                        ), (k, num_irts)
                    reference.observe(ids[k], sizes[k], times[k])
                for k in range(n):
                    store.observe_scalar(ids[k], sizes[k], times[k])
            assert len(store) == len(reference.records)
            assert store.metadata_bytes() == reference.metadata_bytes()
            for obj_id, record in store._records.items():
                assert obj_id in reference.records
                assert (record.gaps is None) == (record.length == 0)
                assert _bits(store.vector(obj_id, now, max_irts)) == _bits(
                    reference.vector(obj_id, now, max_irts)
                )
