"""Density/utility-based policies: LHD, Hyperbolic, SecondHit, GDS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import CachePolicy
from repro.policies.classic import GdsCache, LruCache
from repro.policies.hyperbolic import HyperbolicCache
from repro.policies.lhd import _NUM_CLASSES, LhdCache, _ClassStats
from repro.policies.secondhit import SecondHitCache
from repro.traces.request import Request
from repro.traces.synthetic import irm_trace
from repro.util.indexed_set import IndexedSet


def req(obj_id, time, size=10):
    return Request(time=time, obj_id=obj_id, size=size)


class TestLhd:
    def test_basic_operation(self):
        cache = LhdCache(100, seed=0)
        assert cache.request(req(1, 0.0)) is False
        assert cache.request(req(1, 1.0)) is True

    def test_hit_density_decreases_with_size(self):
        cache = LhdCache(10_000, seed=0)
        cache.request(req(1, 0.0, size=10))
        cache.request(req(2, 0.0, size=1000))
        assert cache.hit_density(1, 5.0) > cache.hit_density(2, 5.0)

    def test_class_learning_from_hits(self):
        cache = LhdCache(10_000, seed=0)
        for t in range(10):
            cache.request(req(1, float(t)))
        cls = cache._classes[cache._class_of(1)]
        assert cls.hit_probability > 0.5
        assert cls.expected_time == pytest.approx(1.0, rel=0.2)

    def test_beats_lru_on_zipf(self):
        trace = irm_trace(15_000, 300, alpha=1.0, mean_size=1 << 14, seed=41)
        capacity = int(0.05 * trace.unique_bytes())
        lhd = LhdCache(capacity, seed=1)
        lru = LruCache(capacity)
        lhd.process(trace)
        lru.process(trace)
        assert lhd.object_hit_ratio > lru.object_hit_ratio

    def test_capacity_respected(self, var_size_trace):
        cache = LhdCache(1 << 20, seed=2)
        for request in var_size_trace:
            cache.request(request)
            assert cache.used_bytes <= cache.capacity


class ReferenceLhdCache(CachePolicy):
    """LHD with the victim pick the columnar one replaced, kept verbatim
    as the differential oracle: the cached ids in an ``IndexedSet``
    sampled through ``IndexedSet.sample``, and ``min()`` over
    ``hit_density``."""

    name = "lhd"

    def __init__(self, capacity: int, num_candidates: int = 64, seed: int = 0):
        super().__init__(capacity)
        if num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        self._num_candidates = num_candidates
        self._rng = np.random.default_rng(seed)
        self._cached = IndexedSet()
        self._last_access: dict[int, float] = {}
        self._counts: dict[int, int] = {}
        self._classes = [_ClassStats() for _ in range(_NUM_CLASSES)]

    def _class_of(self, obj_id: int) -> int:
        count = self._counts.get(obj_id, 1)
        return min(count.bit_length() - 1, _NUM_CLASSES - 1)

    def hit_density(self, obj_id: int, now: float) -> float:
        """Estimated hits per byte-second for a cached object."""
        stats = self._classes[self._class_of(obj_id)]
        idle = max(now - self._last_access.get(obj_id, now), 0.0)
        expected_wait = max(stats.expected_time - idle, stats.expected_time * 0.1)
        size = self._sizes.get(obj_id, 1)
        return stats.hit_probability / (size * expected_wait)

    def _on_access(self, req: Request) -> None:
        previous = self._last_access.get(req.obj_id)
        if self.contains(req.obj_id) and previous is not None:
            self._classes[self._class_of(req.obj_id)].record_hit(
                req.time - previous
            )
        self._counts[req.obj_id] = self._counts.get(req.obj_id, 0) + 1
        self._last_access[req.obj_id] = req.time

    def _on_admit(self, req: Request) -> None:
        self._cached.add(req.obj_id)

    def _on_evict(self, obj_id: int) -> None:
        self._classes[self._class_of(obj_id)].record_eviction()
        self._cached.discard(obj_id)

    def _select_victim(self, incoming: Request) -> int:
        candidates = self._cached.sample(self._num_candidates, self._rng)
        return min(candidates, key=lambda oid: self.hit_density(oid, incoming.time))

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + 24 * len(self._last_access)


@st.composite
def lhd_replays(draw):
    """A random trace with LHD settings.  Few distinct sizes and gaps
    make density ties and equal timestamps common; a handful of hot
    objects push reference counts across class boundaries; and rare
    negative gaps let a request arrive before a cached object's last
    access, where the idle time's floor at 0 decides."""
    capacity = draw(st.integers(1, 600))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    sizes += draw(st.lists(st.integers(1, capacity + 1), max_size=1))
    n = draw(st.one_of(st.integers(1, 100), st.integers(300, 800)))
    objects = draw(st.one_of(st.integers(1, 12), st.integers(13, 400)))
    regress = draw(st.sampled_from([0.0, 0.0, 0.05]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size_of = rng.choice(sizes, objects).tolist()
    gaps = rng.choice([0.0, 0.0, 0.5, 1.0], n)
    gaps[rng.random(n) < regress] = -2.0
    times = np.maximum(np.cumsum(gaps), 0.0)
    trace = [
        Request(time=time, obj_id=obj_id, size=size_of[obj_id])
        for time, obj_id in zip(times.tolist(), rng.integers(0, objects, n).tolist())
    ]
    settings_ = {
        "capacity": capacity,
        "num_candidates": draw(st.sampled_from([1, 4, 64])),
        "seed": draw(st.integers(0, 3)),
    }
    return trace, settings_


def _cached_last_access(cache):
    """Each cached object's last access: the reference's dict entry, the
    columnar cache's ``last`` slot column (its only copy)."""
    if isinstance(cache, ReferenceLhdCache):
        return {o: cache._last_access[o] for o in cache._cached}
    column = cache._cached.columns["last"]
    return {o: float(column[cache._cached.slot(o)]) for o in cache._cached}


def _lhd_state(cache):
    return (
        cache.hits,
        cache.misses,
        cache.hit_bytes,
        cache.miss_bytes,
        cache.admissions,
        cache.evictions,
        cache.used_bytes,
        cache.metadata_bytes(),
        cache.cached_objects(),
        # The slot order: the columnar layout swap-removes as IndexedSet does.
        list(cache._cached),
        cache._counts,
        _cached_last_access(cache),
        [(s.hit_probability, s.expected_time) for s in cache._classes],
        cache._rng.bit_generator.state,
    )


def _check_columns(cache):
    """The columnar cache's size and class columns and per-class arrays
    mirror the sizes, counts and class stats ``hit_density`` reads."""
    cached = list(cache._cached)
    columns = cache._cached.columns
    assert columns["size"][: len(cached)].tolist() == [cache._sizes[o] for o in cached]
    assert columns["class"][: len(cached)].tolist() == [cache._class_of(o) for o in cached]
    assert cache._hit_probability.tolist() == [s.hit_probability for s in cache._classes]
    assert cache._expected_time.tolist() == [s.expected_time for s in cache._classes]


def replay_lhd_in_lockstep(trace, check_columns=True, **settings_):
    """Replay ``trace`` through LhdCache and ReferenceLhdCache side by
    side.  After every request, assert the same verdict, the same victims
    in order and the same state.  Returns the evictions."""
    caches = [LhdCache(**settings_), ReferenceLhdCache(**settings_)]
    victims = [[], []]
    for cache, evicted in zip(caches, victims):
        remove = cache._remove

        def capture(obj_id, evicted=evicted, remove=remove):
            evicted.append(obj_id)
            remove(obj_id)

        cache._remove = capture
    columnar, reference = caches
    for request in trace:
        outcomes = []
        for cache, evicted in zip(caches, victims):
            del evicted[:]
            outcomes.append((cache.request(request), list(evicted)))
        assert outcomes[0] == outcomes[1]
        assert _lhd_state(columnar) == _lhd_state(reference)
        if check_columns:
            _check_columns(columnar)
    return columnar.evictions


class TestLhdColumnarPickMatchesReference:
    """The columnar pick evicts exactly the reference ``min()`` pick's
    victims."""

    @settings(max_examples=150, deadline=None)
    @given(replay=lhd_replays())
    def test_random_traces(self, replay):
        trace, settings_ = replay
        replay_lhd_in_lockstep(trace, **settings_)

    def test_production_standin(self, production_trace, production_capacity):
        evictions = replay_lhd_in_lockstep(
            production_trace, check_columns=False, capacity=production_capacity, seed=1
        )
        assert evictions > 1000


class TestHyperbolic:
    def test_priority_decays_with_residence(self):
        cache = HyperbolicCache(1000, seed=0)
        cache.request(req(1, 0.0))
        early = cache.priority(1, 1.0)
        late = cache.priority(1, 100.0)
        assert late < early

    def test_priority_grows_with_hits(self):
        cache = HyperbolicCache(1000, seed=0)
        cache.request(req(1, 0.0))
        before = cache.priority(1, 10.0)
        cache.request(req(1, 5.0))
        after = cache.priority(1, 10.0)
        assert after > before

    def test_size_aware_flag(self):
        aware = HyperbolicCache(10_000, size_aware=True, seed=0)
        blind = HyperbolicCache(10_000, size_aware=False, seed=0)
        for cache in (aware, blind):
            cache.request(req(1, 0.0, size=100))
        assert aware.priority(1, 1.0) == pytest.approx(
            blind.priority(1, 1.0) / 100
        )

    def test_burst_protection_vs_lru(self):
        # A burst-hit object should outlive a merely-recent one.
        cache = HyperbolicCache(30, num_candidates=64, seed=0)
        for t in range(5):
            cache.request(req(1, float(t)))  # bursty
        cache.request(req(2, 5.0))
        cache.request(req(3, 6.0))
        cache.request(req(4, 7.0))  # eviction needed
        assert cache.contains(1)

    def test_capacity_respected(self, var_size_trace):
        cache = HyperbolicCache(1 << 20, seed=3)
        for request in var_size_trace:
            cache.request(request)
            assert cache.used_bytes <= cache.capacity


class TestSecondHit:
    def test_rejects_bad_history(self):
        with pytest.raises(ValueError):
            SecondHitCache(100, history_items=0)

    def test_first_request_not_admitted(self):
        cache = SecondHitCache(100)
        cache.request(req(1, 0.0))
        assert not cache.contains(1)

    def test_second_request_admitted(self):
        cache = SecondHitCache(100)
        cache.request(req(1, 0.0))
        cache.request(req(1, 1.0))
        assert cache.contains(1)

    def test_horizon_expires_history(self):
        cache = SecondHitCache(100, horizon_seconds=10.0)
        cache.request(req(1, 0.0))
        cache.request(req(1, 50.0))  # first sighting expired
        assert not cache.contains(1)
        cache.request(req(1, 55.0))  # within horizon of the 50.0 sighting
        assert cache.contains(1)

    def test_history_table_bounded(self):
        cache = SecondHitCache(1000, history_items=5)
        for i in range(20):
            cache.request(req(i, float(i)))
        assert len(cache._seen) <= 5

    def test_filters_one_hit_wonders(self, production_trace, production_capacity):
        filtered = SecondHitCache(production_capacity)
        unfiltered = LruCache(production_capacity)
        filtered.process(production_trace)
        unfiltered.process(production_trace)
        # Admitting only re-requested contents means far fewer admissions.
        assert filtered.admissions < 0.7 * unfiltered.admissions


class TestGds:
    def test_size_drives_eviction(self):
        cache = GdsCache(100)
        cache.request(req(1, 0.0, size=80))
        cache.request(req(2, 1.0, size=20))
        cache.request(req(3, 2.0, size=50))  # must evict the big one
        assert not cache.contains(1)
        assert cache.contains(2)

    def test_frequency_blind(self):
        cache = GdsCache(100)
        for t in range(10):
            cache.request(req(1, float(t), size=80))  # popular but big
        cache.request(req(2, 20.0, size=20))
        cache.request(req(3, 21.0, size=50))
        # Unlike GDSF, popularity does not save the large object.
        assert not cache.contains(1)
