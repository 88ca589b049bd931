"""Shared utility substrate: probabilistic data structures, heaps, sampling,
curve fitting and streaming statistics.

These are the building blocks the caching policies, bounds and the LHR core
are assembled from.  Everything here is deterministic given an explicit seed
and has no dependency on the rest of the package.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.util.bloom": ("BloomFilter",),
        "repro.util.fitting": ("ZipfFit", "fit_zipf"),
        "repro.util.heap": ("LazyHeap",),
        "repro.util.sampling": ("ZipfSampler", "zipf_weights"),
        "repro.util.sketch": ("CountMinSketch",),
        "repro.util.stats": ("EwmaEstimator", "PercentileTracker", "RunningStats"),
    },
)

__all__ = list(_EXPORTS)
