"""Hazard-rate machinery shared by the exact HR bound and HRO.

Appendix A.1 of the paper: upon the k-th request, the expected hit
indicator under any non-anticipative policy is maximized by caching the
contents with the largest size-normalized hazard rates
``zeta_i(t) / s_i`` subject to the knapsack constraint
``sum s_i <= M``.  The fractional relaxation of that knapsack — fill the
cache greedily in descending hazard-per-byte order — upper-bounds the
integral optimum, so classifying a request as a hit iff its content sits
in that greedy prefix yields an upper bound on the hit probability of
every non-anticipative policy.

``hazard_knapsack`` is that greedy fill, the one descending-hazard walk
behind the top set, the marginal hazard and the hazard ranks;
``hazard_top_set`` returns its prefix.  ``exact_hazard_bound`` evaluates
the bound when the per-content request rates are known exactly
(synthetic IRM workloads, where the Poisson hazard is the constant rate
``lambda_i``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.bounds.belady import BoundResult
from repro.traces.request import Request


def hazard_knapsack(
    hazards: np.ndarray,
    sizes: np.ndarray,
    capacity: int,
) -> tuple[np.ndarray, int, float]:
    """Fill a ``capacity``-byte cache in descending size-normalized hazard.

    ``hazards`` must already be size-normalized (``zeta_i / s_i``) and
    ``sizes`` are byte counts.  Returns ``(order, fill, threshold)``:

    * ``order`` — content positions hottest first.  Ties keep the
      reversed order of a stable argsort, so a content's hazard rank is
      its index here and the top set is always a rank prefix.
    * ``fill`` — the top set is ``order[:fill]``.  Contents are taken
      until the next one no longer fits entirely; the partially-fitting
      content of the fractional solution is *included* — generosity
      keeps the bound an upper bound.  A content with a non-positive
      hazard is never taken.
    * ``threshold`` — the marginal hazard: that of the first content
      whose cumulative size reaches ``capacity``, or 0.0 when everything
      fits (any re-request is then a potential hit).
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    order = np.argsort(hazards, kind="stable")[::-1]
    ranked = hazards[order]
    overflow = int(np.searchsorted(np.cumsum(sizes[order]), capacity))
    threshold = float(ranked[overflow]) if overflow < len(order) else 0.0
    nonpositive = np.flatnonzero(ranked <= 0)
    fill = min(overflow + 1, int(nonpositive[0]) if nonpositive.size else len(order))
    return order, fill, threshold


def hazard_top_set(
    obj_ids: Sequence[int],
    hazards: np.ndarray,
    sizes: np.ndarray,
    capacity: int,
) -> frozenset[int]:
    """Contents in the fractional-knapsack prefix (:func:`hazard_knapsack`)."""
    order, fill, _ = hazard_knapsack(hazards, sizes, capacity)
    return frozenset([obj_ids[i] for i in order[:fill].tolist()])


def exact_hazard_bound(
    requests: Sequence[Request],
    rates: dict[int, float],
    capacity: int,
) -> BoundResult:
    """HR-based upper bound with exactly known Poisson request rates.

    For a Poisson request process the hazard is the constant rate
    ``lambda_i``, so the ranking never changes and the top set is fixed.
    A request hits iff its content is in the top set and has been seen
    before (the first request of any content is a compulsory miss).
    """
    if not requests:
        return BoundResult("hr-exact", 0, 0, 0, 0)
    sizes: dict[int, int] = {}
    for req in requests:
        sizes.setdefault(req.obj_id, req.size)
    ids = list(sizes)
    size_arr = np.asarray([sizes[i] for i in ids], dtype=np.float64)
    hazard_arr = np.asarray(
        [rates.get(i, 0.0) for i in ids], dtype=np.float64
    ) / size_arr
    top = hazard_top_set(ids, hazard_arr, size_arr, capacity)
    seen: set[int] = set()
    hits = 0
    hit_bytes = 0
    total_bytes = 0
    for req in requests:
        total_bytes += req.size
        if req.obj_id in top and req.obj_id in seen:
            hits += 1
            hit_bytes += req.size
        seen.add(req.obj_id)
    return BoundResult(
        name="hr-exact",
        requests=len(requests),
        hits=hits,
        hit_bytes=hit_bytes,
        total_bytes=total_bytes,
    )
