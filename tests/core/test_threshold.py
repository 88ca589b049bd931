"""Auto-tuned threshold: candidate set, shadow replay, update guards."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import threshold
from repro.core.threshold import STEP, ThresholdEstimator, WindowSample, shadow_hit_ratio
from repro.obs import Observation


def sample(obj_id, p, size=10, time=0.0):
    return WindowSample(obj_id=obj_id, size=size, time=time, probability=p)


class TestWindowSample:
    def test_fields_and_value_semantics(self):
        recorded = sample(3, 0.25, size=40, time=1.5)
        assert (recorded.obj_id, recorded.size, recorded.time) == (3, 40, 1.5)
        assert recorded.probability == 0.25
        assert recorded == WindowSample(3, 40, 1.5, 0.25)
        assert hash(recorded) == hash(WindowSample(3, 40, 1.5, 0.25))
        assert pickle.loads(pickle.dumps(recorded)) == recorded
        assert dataclasses.replace(recorded, probability=0.5).probability == 0.5

    @pytest.mark.parametrize("name", ["obj_id", "size", "time", "probability"])
    def test_rejects_mutation(self, name):
        recorded = sample(3, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(recorded, name, 1)
        assert recorded == sample(3, 0.25)


class TestConstruction:
    @pytest.mark.parametrize("delta", [-0.1, 1.1])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            ThresholdEstimator(initial_delta=delta)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ThresholdEstimator(beta=-0.1)

    def test_rejects_bad_sample_fraction(self):
        with pytest.raises(ValueError):
            ThresholdEstimator(sample_fraction=0.0)


class TestCandidates:
    def test_paper_candidate_set(self):
        estimator = ThresholdEstimator(initial_delta=0.5)
        assert estimator.candidates() == [0.0, 0.4, 0.5, 0.6]

    def test_clipped_at_boundaries(self):
        low = ThresholdEstimator(initial_delta=0.0)
        assert low.candidates() == [0.0, STEP, 0.5]
        high = ThresholdEstimator(initial_delta=1.0)
        assert high.candidates() == [0.0, 0.5, 0.9, 1.0]


class TestShadowReplay:
    def test_empty_samples(self):
        assert shadow_hit_ratio([], 100, 0.5) == 0.0

    def test_admit_all_counts_rerequests(self):
        samples = [sample(1, 1.0, time=0.0), sample(1, 1.0, time=1.0)]
        assert shadow_hit_ratio(samples, 100, 0.0) == pytest.approx(0.5)

    def test_threshold_blocks_low_probability(self):
        samples = [sample(1, 0.2, time=0.0), sample(1, 0.2, time=1.0)]
        assert shadow_hit_ratio(samples, 100, 0.5) == 0.0

    def test_oversized_object_never_cached(self):
        samples = [sample(1, 1.0, size=500, time=0.0), sample(1, 1.0, size=500, time=1.0)]
        assert shadow_hit_ratio(samples, 100, 0.0) == 0.0

    def test_eviction_prefers_low_q(self):
        # Capacity for one object: a high-p object should displace a
        # low-p one and then hit.
        samples = [
            sample(1, 0.1, size=60, time=0.0),
            sample(2, 0.9, size=60, time=1.0),  # evicts 1 (lower q)
            sample(2, 0.9, size=60, time=2.0),  # hit
        ]
        assert shadow_hit_ratio(samples, 100, 0.0) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("probe, hit", [(1, False), (2, True), (3, True), (4, True)])
    def test_equal_scores_leave_in_admission_order(self, probe, hit):
        # Three equal-q objects fill the cache (same p, size and access
        # time).  Object 4 evicts one; a probe that is never admitted
        # (p < delta) shows which.  Object 1 leaves first although it was
        # hit after 2 and 3 arrived: a hit does not reorder.
        head = [sample(1, 1.0), sample(2, 1.0), sample(3, 1.0), sample(1, 1.0), sample(4, 1.0)]
        ratio = shadow_hit_ratio(head + [sample(probe, 0.0)], 30, 0.5)
        assert ratio == (2 if hit else 1) / 6

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("hit", [False, True])
    def test_non_finite_probability_names_sample(self, bad, hit):
        # On the admission path and on a hit's refresh of a cached p.
        samples = [sample(1, 1.0), sample(1 if hit else 2, bad), sample(3, 1.0)]
        with pytest.raises(ValueError, match="sample 1: probability must be finite"):
            shadow_hit_ratio(samples, 100, 0.5)

    def test_nan_windows_fail_closed(self):
        # Random 30-sample windows in which a third of the probabilities
        # are NaN: each raises ValueError naming its first NaN sample,
        # rather than a KeyError from inside the slot map.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            probabilities = rng.choice([0.0, 0.3, 0.7, 1.0], 30)
            probabilities[rng.random(30) < 1 / 3] = np.nan
            samples = [
                sample(int(obj_id), float(p), size=int(size), time=float(t))
                for obj_id, p, size, t in zip(
                    rng.integers(0, 10, 30),
                    probabilities,
                    rng.choice([1, 5, 20], 30),
                    np.cumsum(rng.choice([0.0, 1.0], 30)),
                )
            ]
            nan = np.flatnonzero(np.isnan(probabilities))
            if not len(nan):
                continue
            with pytest.raises(ValueError, match=f"sample {nan[0]}: "):
                shadow_hit_ratio(samples, 30, float(rng.choice([0.0, 0.5])))

    def test_multi_victim_ties_leave_in_admission_order(self):
        # A 25-byte object needs three of the four equal-q 10-byte objects
        # gone: 1, 2 and 3 leave, 4 stays.
        head = [sample(i, 1.0) for i in (1, 2, 3, 4)] + [sample(1, 1.0), sample(5, 1.0, size=25)]
        for probe, hit in [(1, False), (2, False), (3, False), (4, True), (5, True)]:
            ratio = shadow_hit_ratio(head + [sample(probe, 0.0)], 40, 0.5)
            assert ratio == (2 if hit else 1) / 7


def oracle_shadow_hit_ratio(
    samples: list[WindowSample],
    capacity: int,
    delta: float,
    byte_weighted: bool = False,
) -> float:
    """The dict + ``sorted()`` shadow replay that the columnar one replaced,
    kept verbatim as the differential oracle."""
    if not samples:
        return 0.0
    cached: dict[int, tuple[int, float, float]] = {}  # id -> (size, p, last)
    used = 0
    hits = 0.0
    total = 0.0
    for sample in samples:
        weight = float(sample.size) if byte_weighted else 1.0
        total += weight
        entry = cached.get(sample.obj_id)
        if entry is not None:
            hits += weight
            cached[sample.obj_id] = (entry[0], sample.probability, sample.time)
            continue
        if sample.probability < delta or sample.size > capacity:
            continue
        if used + sample.size > capacity:
            # Evict smallest-q objects until the sample fits.  Large
            # shadow caches rank their victims vectorized: the q values
            # use the same float ops as the scalar key and a stable
            # argsort keeps sorted()'s tie order (dict insertion order),
            # so the victim sequence is bit-identical either way.
            if len(cached) >= 64:
                entries = np.array(list(cached.values()), dtype=np.float64)
                q = entries[:, 1] / (
                    entries[:, 0]
                    * np.maximum(sample.time - entries[:, 2], 1e-9)
                )
                ids = list(cached)
                scores = [
                    ids[i] for i in np.argsort(q, kind="stable").tolist()
                ]
            else:
                scores = sorted(
                    cached,
                    key=lambda oid: cached[oid][1]
                    / (cached[oid][0] * max(sample.time - cached[oid][2], 1e-9)),
                )
            for victim in scores:
                if used + sample.size <= capacity:
                    break
                used -= cached.pop(victim)[0]
        cached[sample.obj_id] = (sample.size, sample.probability, sample.time)
        used += sample.size
    return hits / total if total else 0.0


@st.composite
def windows(
    draw,
    capacity=st.integers(1, 400),
    length=st.integers(0, 400),
    objects=st.integers(1, 200),
):
    """A shadow-replay window built from few distinct values, so q ties,
    ``p == delta``, ``size == capacity``, ``size > capacity``, repeated
    ids and multi-victim overflows all come up.  Hypothesis draws the
    value pools; a drawn seed fills the rows from them."""
    capacity = draw(capacity)
    small = st.lists(st.integers(1, 6), min_size=1, max_size=3)
    large = st.lists(
        st.one_of(st.integers(1, capacity), st.sampled_from([capacity, capacity + 1])),
        max_size=2,
    )
    sizes = draw(small) + draw(large)
    probabilities = draw(
        st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), min_size=1, max_size=3)
    )
    delta = draw(st.one_of(st.sampled_from(probabilities), st.floats(0.0, 1.0)))
    gaps = [0.0, 0.0, 0.5, 1.0, 3.0]
    n, ids = draw(length), draw(objects)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    now = 0.0
    for obj_id, size, p, gap in zip(
        rng.integers(0, ids, n).tolist(),
        rng.choice(sizes, n).tolist(),
        rng.choice(probabilities, n).tolist(),
        rng.choice(gaps, n).tolist(),
    ):
        now += gap
        samples.append(WindowSample(obj_id=obj_id, size=size, time=now, probability=p))
    return samples, capacity, delta


class TestShadowReplayMatchesOracle:
    """The columnar replay returns exactly the old replay's ratio."""

    @settings(max_examples=300, deadline=None)
    @given(window=windows(), byte_weighted=st.booleans())
    def test_random_windows(self, window, byte_weighted):
        samples, capacity, delta = window
        assert shadow_hit_ratio(samples, capacity, delta, byte_weighted) == (
            oracle_shadow_hit_ratio(samples, capacity, delta, byte_weighted)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        window=windows(
            capacity=st.integers(250, 400),
            length=st.integers(300, 500),
            objects=st.integers(100, 300),
        ),
        byte_weighted=st.booleans(),
    )
    def test_random_windows_past_64_objects(self, window, byte_weighted):
        # Large capacities and long windows: the old replay's vectorised
        # branch (64 or more cached objects) on the oracle side.
        samples, capacity, delta = window
        assert shadow_hit_ratio(samples, capacity, delta, byte_weighted) == (
            oracle_shadow_hit_ratio(samples, capacity, delta, byte_weighted)
        )

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("capacity", [300, 2000])
    def test_long_windows(self, seed, capacity):
        # Enough admissions to compact and grow the slot columns, with q
        # ties from few distinct values.
        rng = np.random.default_rng(seed)
        sizes = rng.choice([1, 2, 3, 8, 40], size=1500)
        samples = [
            WindowSample(obj_id=int(i), size=int(sizes[i]), time=float(t), probability=float(p))
            for i, t, p in zip(
                rng.integers(0, 1500, size=3000),
                np.cumsum(rng.choice([0.0, 1.0, 2.0], size=3000)),
                rng.choice([0.2, 0.5, 0.9, 1.0], size=3000),
            )
        ]
        for delta in (0.0, 0.5, 0.9):
            for byte_weighted in (False, True):
                assert shadow_hit_ratio(samples, capacity, delta, byte_weighted) == (
                    oracle_shadow_hit_ratio(samples, capacity, delta, byte_weighted)
                )

    def test_one_object_evicts_hundreds(self):
        # 300 one-byte objects, then one that needs the whole cache: the
        # partition width must grow past its first guess.
        samples = [sample(i, 1.0, size=1, time=float(i % 7)) for i in range(300)]
        samples += [sample(999, 1.0, size=300, time=8.0), sample(999, 1.0, size=300, time=9.0)]
        samples += [sample(i, 1.0, size=1, time=10.0) for i in range(300)]
        assert shadow_hit_ratio(samples, 300, 0.5) == oracle_shadow_hit_ratio(samples, 300, 0.5)


class _ThresholdRows:
    """Learner sink keeping each update's exact incumbent and best ratio."""

    enabled = True

    def __init__(self):
        self.rows = []

    def record_threshold(self, **fields):
        self.rows.append(fields)


def _estimate(windows_, objective, sample_fraction, replay):
    estimator = ThresholdEstimator(
        initial_delta=0.5, beta=0.0, sample_fraction=sample_fraction, objective=objective, seed=3
    )
    sink = _ThresholdRows()
    estimator.obs = Observation.sidecars_only(learner=sink)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threshold, "shadow_hit_ratio", replay)
        for samples, capacity, _ in windows_:
            estimator.update(samples, capacity)
    return estimator.history, sink.rows


@settings(max_examples=40, deadline=None)
@given(
    windows_=st.lists(windows(length=st.integers(0, 150)), min_size=1, max_size=4),
    objective=st.sampled_from(ThresholdEstimator.OBJECTIVES),
    sample_fraction=st.sampled_from([0.5, 1.0]),
)
def test_estimator_matches_oracle(windows_, objective, sample_fraction):
    """Same delta history and the same incumbent/best ratios, update by
    update, whether the estimator replays through the oracle or the
    columnar replay."""
    assert _estimate(windows_, objective, sample_fraction, shadow_hit_ratio) == _estimate(
        windows_, objective, sample_fraction, oracle_shadow_hit_ratio
    )


class TestUpdateRules:
    def _samples_favouring_admit_all(self):
        # Mixed-probability re-request stream: admitting everything wins.
        rows = []
        t = 0.0
        for obj_id, p in [(1, 0.3), (2, 0.4), (3, 0.3)]:
            for _ in range(5):
                rows.append(sample(obj_id, p, size=10, time=t))
                t += 1.0
        return rows

    def test_moves_toward_better_threshold(self):
        estimator = ThresholdEstimator(
            initial_delta=0.5, beta=0.001, sample_fraction=1.0
        )
        estimator.update(self._samples_favouring_admit_all(), capacity=100)
        assert estimator.delta < 0.5  # 0.0 beats 0.5 here

    def test_beta_guard_blocks_marginal_wins(self):
        estimator = ThresholdEstimator(
            initial_delta=0.5, beta=1.0, sample_fraction=1.0
        )
        estimator.update(self._samples_favouring_admit_all(), capacity=100)
        assert estimator.delta == 0.5  # improvement below beta: keep

    def test_no_update_when_incumbent_best(self):
        # All probabilities 1.0: every threshold <= 1 behaves identically,
        # so the incumbent must be kept.
        rows = [sample(1, 1.0, time=float(t)) for t in range(6)]
        estimator = ThresholdEstimator(initial_delta=0.5, sample_fraction=1.0)
        estimator.update(rows, capacity=100)
        assert estimator.delta == 0.5

    def test_history_tracks_updates(self):
        estimator = ThresholdEstimator(initial_delta=0.5, sample_fraction=1.0)
        estimator.update(self._samples_favouring_admit_all(), capacity=100)
        assert len(estimator.history) == 2
        assert estimator.history[0] == 0.5

    def test_sampling_is_deterministic(self):
        def run(seed):
            estimator = ThresholdEstimator(
                initial_delta=0.5, sample_fraction=0.5, seed=seed
            )
            estimator.update(self._samples_favouring_admit_all(), capacity=100)
            return estimator.delta

        assert run(3) == run(3)

    def test_empty_window_is_noop(self):
        estimator = ThresholdEstimator(initial_delta=0.5)
        assert estimator.update([], capacity=100) == 0.5


class TestByteObjective:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            ThresholdEstimator(objective="latency")

    def test_byte_weighting_changes_score(self):
        # One small popular object, one huge unpopular one: byte weighting
        # values the huge object's single re-request more.
        samples = [
            sample(1, 1.0, size=10, time=0.0),
            sample(2, 1.0, size=1000, time=1.0),
            sample(1, 1.0, size=10, time=2.0),
            sample(2, 1.0, size=1000, time=3.0),
        ]
        object_score = shadow_hit_ratio(samples, 5000, 0.0)
        byte_score = shadow_hit_ratio(samples, 5000, 0.0, byte_weighted=True)
        assert object_score == pytest.approx(0.5)
        assert byte_score == pytest.approx(1010 / 2020)

    def test_lhr_accepts_byte_objective(self, ):
        from repro.core.lhr import LhrCache

        cache = LhrCache(1000, threshold_objective="byte")
        assert cache.estimator.objective == "byte"
