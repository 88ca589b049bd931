"""Bounds on optimal caching (OPT).

Offline bounds (assume full knowledge of the future):

* :func:`belady_unit` — Bélády's MIN, exact OPT for equal-size objects.
* :func:`belady_size` — the "Bélády-size" heuristic widely used as an
  upper bound for variable sizes (Section 2).
* :func:`infinite_cap` — hits under an infinite cache: every re-request
  hits.  The weakest but simplest upper bound.
* :func:`pfoo_upper` / :func:`pfoo_lower` — Practical Flow-based Offline
  Optimal (Berger et al. 2018): upper bound via the average-occupancy
  relaxation, lower bound via a feasible greedy interval packing.

Online bound:

* the HRO bound lives in :mod:`repro.core.hro`; this package supplies its
  knapsack-relaxation machinery (:func:`hazard_top_set`) and the exact
  hazard-rate bound for synthetic traces with known distributions
  (:func:`exact_hazard_bound`).
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.bounds.belady": (
            "BoundResult", "belady_size", "belady_size_decisions", "belady_unit",
            "next_occurrences",
        ),
        "repro.bounds.hazard": ("exact_hazard_bound", "hazard_top_set"),
        "repro.bounds.infinite_cap": ("infinite_cap",),
        "repro.bounds.pfoo": ("pfoo_lower", "pfoo_upper"),
    },
)

__all__ = list(_EXPORTS)
