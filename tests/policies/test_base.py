"""CachePolicy framework: admission flow, eviction loop, accounting."""

import pytest

from repro.policies.base import CachePolicy, NoCache
from repro.policies.classic import LruCache
from repro.sim import build_policy
from repro.traces.request import Request


def req(obj_id, size=10, time=0.0):
    return Request(time=time, obj_id=obj_id, size=size)


class TestConstruction:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)
        with pytest.raises(ValueError):
            LruCache(-5)


class TestSamplingArguments:
    @pytest.mark.parametrize("count", [0, -3])
    @pytest.mark.parametrize("name", ["lhr", "lrb", "lhd", "hyperbolic"])
    def test_rejects_num_candidates_below_one(self, name, count):
        # Sampling policies fail at construction, not at the first eviction.
        with pytest.raises(ValueError, match="num_candidates"):
            build_policy(name, 100, num_candidates=count)


class TestAdmissionFlow:
    def test_miss_then_hit(self):
        cache = LruCache(100)
        assert cache.request(req(1)) is False
        assert cache.request(req(1)) is True

    def test_object_larger_than_cache_never_admitted(self):
        cache = LruCache(100)
        cache.request(req(1, size=200))
        assert not cache.contains(1)
        assert cache.used_bytes == 0
        # And the refusal does not evict anything already cached.
        cache.request(req(2, size=50))
        cache.request(req(3, size=500))
        assert cache.contains(2)

    def test_object_exactly_cache_size_admitted(self):
        cache = LruCache(100)
        cache.request(req(1, size=100))
        assert cache.contains(1)
        assert cache.used_bytes == 100

    def test_eviction_frees_enough_space(self):
        cache = LruCache(100)
        for obj_id in range(10):
            cache.request(req(obj_id, size=10))
        assert cache.used_bytes == 100
        cache.request(req(99, size=35))
        assert cache.contains(99)
        assert cache.used_bytes <= 100

    def test_byte_accounting_consistency(self):
        cache = LruCache(64)
        sizes = [10, 20, 30, 40, 10, 20]
        for i, size in enumerate(sizes):
            cache.request(req(i, size=size))
        assert cache.used_bytes == sum(
            cache.cached_objects().values()
        )
        assert cache.used_bytes <= 64


class TestCounters:
    def test_hit_miss_counts(self):
        cache = LruCache(100)
        cache.request(req(1))
        cache.request(req(1))
        cache.request(req(2))
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.object_hit_ratio == pytest.approx(1 / 3)

    def test_byte_hit_ratio(self):
        cache = LruCache(100)
        cache.request(req(1, size=30))
        cache.request(req(1, size=30))
        cache.request(req(2, size=40))
        assert cache.hit_bytes == 30
        assert cache.miss_bytes == 70
        assert cache.byte_hit_ratio == pytest.approx(0.3)

    def test_zero_requests(self):
        cache = LruCache(100)
        assert cache.object_hit_ratio == 0.0
        assert cache.byte_hit_ratio == 0.0

    def test_admission_and_eviction_counters(self):
        cache = LruCache(20)
        cache.request(req(1, size=10))
        cache.request(req(2, size=10))
        cache.request(req(3, size=10))  # evicts 1
        assert cache.admissions == 3
        assert cache.evictions == 1

    def test_process_iterates(self, tiny_trace):
        cache = LruCache(1000)
        cache.process(tiny_trace)
        assert cache.hits + cache.misses == len(tiny_trace)


class TestNoCache:
    def test_never_stores(self, tiny_trace):
        cache = NoCache(1000)
        cache.process(tiny_trace)
        assert cache.hits == 0
        assert cache.num_objects == 0
        assert cache.used_bytes == 0

    def test_metadata_overhead_zero_objects(self):
        assert NoCache(10).metadata_bytes() == 0


class TestVictimContract:
    def test_bad_victim_detected(self):
        class BrokenPolicy(CachePolicy):
            name = "broken"

            def _select_victim(self, incoming):
                return 424242  # not cached

        cache = BrokenPolicy(10)
        cache.request(req(1, size=10))
        with pytest.raises(RuntimeError, match="victim"):
            cache.request(req(2, size=10))
