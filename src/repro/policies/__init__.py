"""Caching policies: the paper's seven SOTA baselines plus supporting
classics, and a registry for building policies by name in experiments.

The seven best-performing SOTAs reported in the paper (Section 6.2) are
LRB, Hawkeye, LRU, LRU-4, LFU-DA, AdaptSize and B-LRU; LHR itself lives
in :mod:`repro.core.lhr`.

Unlike the other packages, this one imports every policy module when it
loads: code that walks ``CachePolicy`` subclasses before building any
policy (the benchmark suite's layer tracer) must find every registered
class.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.policies.adaptsize import AdaptSizeCache
from repro.policies.arc import ArcCache
from repro.policies.base import CachePolicy, NoCache
from repro.policies.blru import BloomLruCache
from repro.policies.classic import (
    FifoCache,
    GdsCache,
    GdsfCache,
    LfuCache,
    LfuDaCache,
    LruCache,
    LruKCache,
    RandomCache,
)
from repro.policies.hawkeye import HawkeyeCache
from repro.policies.hyperbolic import HyperbolicCache
from repro.policies.lfo import LfoCache
from repro.policies.lhd import LhdCache
from repro.policies.lrb import LrbCache
from repro.policies.s4lru import S4LruCache
from repro.policies.secondhit import SecondHitCache
from repro.policies.tinylfu import TinyLfuCache, WTinyLfuCache

#: Policy constructors by canonical name; all accept ``capacity`` first.
POLICY_REGISTRY: dict[str, Callable[..., CachePolicy]] = {
    "fifo": FifoCache,
    "random": RandomCache,
    "lru": LruCache,
    "lru-2": lambda capacity, k=2, **kw: LruKCache(capacity, k=k, **kw),
    "lru-4": lambda capacity, k=4, **kw: LruKCache(capacity, k=k, **kw),
    "lfu": LfuCache,
    "lfu-da": LfuDaCache,
    "gds": GdsCache,
    "gdsf": GdsfCache,
    "lhd": LhdCache,
    "s4lru": S4LruCache,
    "hyperbolic": HyperbolicCache,
    "secondhit": SecondHitCache,
    "arc": ArcCache,
    "adaptsize": AdaptSizeCache,
    "b-lru": BloomLruCache,
    "tinylfu": TinyLfuCache,
    "w-tinylfu": WTinyLfuCache,
    "hawkeye": HawkeyeCache,
    "lrb": LrbCache,
    "lfo": LfoCache,
    "no-cache": NoCache,
}

#: The seven SOTA baselines of the paper's evaluation (Section 6.2).
SOTA_POLICIES: tuple[str, ...] = (
    "lrb",
    "hawkeye",
    "lru",
    "lru-4",
    "lfu-da",
    "adaptsize",
    "b-lru",
)


def make_policy(name: str, capacity: int, **kwargs) -> CachePolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = POLICY_REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ValueError(f"unknown policy {name!r}; known: {known}") from None
    return factory(capacity, **kwargs)


__all__ = [
    "AdaptSizeCache",
    "ArcCache",
    "BloomLruCache",
    "CachePolicy",
    "FifoCache",
    "GdsCache",
    "GdsfCache",
    "HawkeyeCache",
    "HyperbolicCache",
    "LfoCache",
    "LfuCache",
    "LfuDaCache",
    "LhdCache",
    "LrbCache",
    "LruCache",
    "LruKCache",
    "NoCache",
    "POLICY_REGISTRY",
    "RandomCache",
    "S4LruCache",
    "SOTA_POLICIES",
    "SecondHitCache",
    "TinyLfuCache",
    "WTinyLfuCache",
    "make_policy",
]
