"""Stand-ins for the paper's four production CDN traces.

The originals (CDN-A, CDN-B, CDN-C, Wikipedia — Table 1) are proprietary.
Each :class:`TraceSpec` below encodes the published per-trace statistics:
duration, unique contents, request count, content-size distribution
(mean / max / shape) and popularity skew, plus two behavioural knobs the
paper describes qualitatively — the one-hit-wonder share (CDN-C "most
contents are only requested once") and popularity drift (all traces are
non-stationary; Section 5.2.3).

``generate_production_trace(spec, scale=...)`` materializes a synthetic
trace with those statistics.  ``scale`` shrinks request and catalogue
counts proportionally so unit tests and CI benchmarks stay fast; cache
sizes for experiments must then be shrunk by the same factor, which
``TraceSpec.scaled_cache_bytes`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.traces.packed import PackedTrace
from repro.traces.request import Trace
from repro.util.sampling import lognormal_sizes, require_seed, zipf_weights

GB = 1 << 30
MB = 1 << 20


@dataclass(frozen=True)
class TraceSpec:
    """Statistical profile of one production trace (one column of Table 1)."""

    name: str
    duration_hours: float
    unique_contents: int
    total_requests: int
    mean_size_mb: float
    max_size_mb: float
    size_sigma: float
    alpha: float
    one_hit_fraction: float
    drift_segments: int
    drift_alpha_amplitude: float
    #: Spearman-style correlation between popularity and size.  CDN video
    #: workloads skew positive (popular titles are large); request-for-
    #: content traces like CDN-C are near zero.
    size_popularity_corr: float
    cache_sizes_gb: tuple[int, ...]
    prototype_cache_gb: int
    caffeine_cache_gb: int
    description: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float:
        return self.duration_hours * 3600.0

    @property
    def request_rate(self) -> float:
        """Mean aggregate arrival rate in requests per second."""
        return self.total_requests / self.duration_seconds

    def scaled_cache_bytes(self, cache_gb: float, scale: float) -> int:
        """Cache capacity matching a paper cache size at reduced trace scale.

        Content sizes are not scaled, so the working set shrinks linearly
        with the catalogue; cache sizes must shrink by the same factor for
        the hit-ratio regime to match the paper's.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return max(int(cache_gb * GB * scale), 1)


PRODUCTION_SPECS: dict[str, TraceSpec] = {
    "cdn-a": TraceSpec(
        name="cdn-a",
        duration_hours=24.0,
        unique_contents=330_446,
        total_requests=970_000,
        mean_size_mb=25.5,
        max_size_mb=7_790.0,
        size_sigma=1.8,
        alpha=0.85,
        one_hit_fraction=0.55,
        size_popularity_corr=0.35,
        drift_segments=12,
        drift_alpha_amplitude=0.10,
        cache_sizes_gb=(256, 512),
        prototype_cache_gb=512,
        caffeine_cache_gb=64,
        description="mixed web and video traffic from several nodes",
    ),
    "cdn-b": TraceSpec(
        name="cdn-b",
        duration_hours=9.9,
        unique_contents=162_104,
        total_requests=1_000_000,
        mean_size_mb=68.4,
        max_size_mb=38_392.0,
        size_sigma=1.9,
        alpha=0.95,
        one_hit_fraction=0.40,
        size_popularity_corr=0.5,
        drift_segments=8,
        drift_alpha_amplitude=0.12,
        cache_sizes_gb=(512, 1024),
        prototype_cache_gb=1024,
        caffeine_cache_gb=128,
        description="mobile video from one live-streaming system",
    ),
    "cdn-c": TraceSpec(
        name="cdn-c",
        duration_hours=330.0,
        unique_contents=297_920,
        total_requests=600_000,
        mean_size_mb=100.0,
        max_size_mb=101.0,
        size_sigma=0.02,
        alpha=0.55,
        one_hit_fraction=0.75,
        size_popularity_corr=0.0,
        drift_segments=20,
        drift_alpha_amplitude=0.06,
        cache_sizes_gb=(64, 128),
        prototype_cache_gb=128,
        caffeine_cache_gb=16,
        description="local-network requests; mostly one-hit contents",
    ),
    "wiki": TraceSpec(
        name="wiki",
        duration_hours=0.1,
        unique_contents=406_883,
        total_requests=1_000_000,
        mean_size_mb=69.5,
        max_size_mb=92_100.0,
        size_sigma=2.0,
        alpha=0.80,
        one_hit_fraction=0.50,
        size_popularity_corr=0.25,
        drift_segments=10,
        drift_alpha_amplitude=0.08,
        cache_sizes_gb=(512, 1024),
        prototype_cache_gb=1024,
        caffeine_cache_gb=128,
        description="Wikipedia west-coast node; photos and media",
    ),
}


def _popularity_with_one_hit_mass(
    num_contents: int,
    num_requests: int,
    alpha: float,
    one_hit_fraction: float,
) -> tuple[np.ndarray, int]:
    """Split the catalogue into a Zipf "head" and a one-hit "tail".

    Returns the Zipf weights over the head and the head size.  Tail
    contents are each requested exactly once, reproducing the
    one-hit-wonder share production traces exhibit.
    """
    num_one_hit = int(num_contents * one_hit_fraction)
    num_one_hit = min(num_one_hit, max(num_requests - 1, 0))
    head = num_contents - num_one_hit
    if head < 2:
        raise ValueError("catalogue too small for the requested one-hit share")
    return zipf_weights(head, alpha), head


def generate_production_trace(
    spec: TraceSpec | str,
    scale: float = 1.0,
    seed: int | None = 0,
) -> Trace:
    """Generate a synthetic stand-in trace for ``spec`` at ``scale``.

    The trace matches the spec's request count, catalogue size, size
    distribution and duration (all scaled), has a Zipf-distributed head
    with the spec's skew, a one-hit-wonder tail, and per-segment
    popularity drift: the Zipf skew oscillates around ``spec.alpha`` and
    the rank-to-content mapping rotates between segments.
    """
    if isinstance(spec, str):
        spec = PRODUCTION_SPECS[spec.lower()]
    if scale <= 0:
        raise ValueError("scale must be positive")
    seed = require_seed(seed)
    rng = np.random.default_rng(seed)

    num_requests = max(int(spec.total_requests * scale), 1000)
    num_contents = max(int(spec.unique_contents * scale), 200)
    num_contents = min(num_contents, num_requests)

    sizes = lognormal_sizes(
        num_contents,
        mean_bytes=spec.mean_size_mb * MB,
        sigma=spec.size_sigma,
        max_bytes=spec.max_size_mb * MB,
        min_bytes=10 * 1024,
        rng=rng,
    )

    head_weights, head = _popularity_with_one_hit_mass(
        num_contents, num_requests, spec.alpha, spec.one_hit_fraction
    )
    num_one_hit = num_contents - head
    head_requests = num_requests - num_one_hit


    # Head requests: Zipf draws with per-segment drift.  Each segment uses
    # a perturbed skew and a rotated rank permutation, so both the shape
    # and the identity of the popular set move over time.
    segments = max(spec.drift_segments, 1)
    per_segment = np.full(segments, head_requests // segments, dtype=np.int64)
    per_segment[: head_requests % segments] += 1
    permutation = rng.permutation(head)

    # Correlate popularity and size within the head.  Rank r (0 = most
    # popular under the base Zipf order) maps to content permutation[r];
    # reassign the drawn head sizes so the content at rank r gets a size
    # whose rank-correlation with popularity matches the spec (video
    # workloads have large popular titles; CDN-C has none).  The per-
    # segment rotation below shifts ranks only gradually, so the long-run
    # correlation survives the drift.
    rho = spec.size_popularity_corr
    if head > 1 and rho != 0.0:
        rank_scores = -np.arange(head, dtype=np.float64)
        rank_scores = (rank_scores - rank_scores.mean()) / max(rank_scores.std(), 1e-12)
        noise = rng.standard_normal(head)
        blend = rho * rank_scores + np.sqrt(max(1.0 - rho * rho, 0.0)) * noise
        head_sizes = np.sort(sizes[permutation])[::-1]
        sizes[permutation[np.argsort(-blend)]] = head_sizes

    head_ids_parts: list[np.ndarray] = []
    for seg_index, seg_count in enumerate(per_segment):
        if seg_count == 0:
            continue
        drift = spec.drift_alpha_amplitude * np.sin(
            2.0 * np.pi * seg_index / segments
        )
        seg_alpha = max(spec.alpha + drift, 0.05)
        weights = zipf_weights(head, seg_alpha)
        cdf = np.cumsum(weights)
        cdf[-1] = 1.0
        ranks = np.searchsorted(cdf, rng.random(seg_count), side="right")
        head_ids_parts.append(permutation[ranks])
        # Popularity churn between segments: a few contents trade rank
        # slots (risers and fallers), while the bulk of the catalogue
        # keeps its long-run popularity — unlike a rotation, this leaves
        # the popularity/size correlation intact.
        churn = max(head // (8 * segments), 1)
        slots_a = rng.integers(0, head, churn)
        slots_b = rng.integers(0, head, churn)
        permutation[slots_a], permutation[slots_b] = (
            permutation[slots_b].copy(),
            permutation[slots_a].copy(),
        )
    head_ids = np.concatenate(head_ids_parts) if head_ids_parts else np.empty(0, np.int64)

    # One-hit tail: each tail content appears exactly once, at a uniformly
    # random position in the stream.
    ids = np.empty(num_requests, dtype=np.int64)
    tail_positions = rng.choice(num_requests, size=num_one_hit, replace=False)
    tail_mask = np.zeros(num_requests, dtype=bool)
    tail_mask[tail_positions] = True
    ids[tail_mask] = head + rng.permutation(num_one_hit)
    ids[~tail_mask] = head_ids

    gaps = rng.exponential(1.0, size=num_requests)
    times = np.cumsum(gaps)
    times *= spec.duration_seconds / times[-1]

    return PackedTrace.from_arrays(
        times,
        ids,
        sizes[ids],
        name=spec.name,
        metadata={
            "spec": spec.name,
            "scale": scale,
            "seed": seed,
            "head_contents": head,
            "one_hit_contents": num_one_hit,
        },
    ).unpack()
