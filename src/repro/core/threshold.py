"""Auto-tuned admission threshold (Sections 4.2 and 5.2.3).

LHR admits a content when its learned admission probability exceeds a
threshold ``delta``.  Because production workloads are non-stationary, a
fixed ``delta = 0.5`` is a poor fit for some traces (Figure 10(a):
CDN-C's hit probability improves ~150% with auto-tuning).  The estimation
algorithm re-evaluates, once per sliding window:

* candidate set ``{0, 0.5, delta - 0.1, delta + 0.1}`` (clipped to [0,1]),
* each candidate's hit probability, measured by replaying a sample of the
  window's requests through a *shadow cache* that admits by the recorded
  probabilities and evicts by LHR's eviction rule,
* two update guards: the winning candidate is adopted only if it beats
  the incumbent AND the margin exceeds ``beta`` (paper default 0.2%).

The paper notes replaying only half the window's requests is enough
(Section 5.2.3); ``sample_fraction`` controls that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import NULL_OBS

#: Threshold adjustment step (the paper's 0.1 grid).
STEP = 0.1

#: Initial length of a shadow replay's slot columns.  When the columns
#: fill up, evicted slots are compacted away; the columns double only if
#: more than half of them still hold cached objects.
_INITIAL_SLOTS = 256

#: First partition width of a multi-victim overflow.  It grows x4 until
#: the k smallest scores cover the byte deficit.
_PARTITION_K = 16


@dataclass(frozen=True, slots=True)
class WindowSample:
    """One request as recorded for shadow replay."""

    obj_id: int
    size: int
    time: float
    probability: float


def shadow_hit_ratio(
    samples: list[WindowSample],
    capacity: int,
    delta: float,
    byte_weighted: bool = False,
) -> float:
    """Hit ratio of an LHR-style shadow cache with threshold ``delta``.

    The shadow cache admits ``probability >= delta``.  While an admitted
    sample does not fit, it evicts the cached object with the smallest
    ``q = p / (size * max(now - last_access, 1e-9))``, i.e. LHR's
    eviction rule with IRT_1 evaluated lazily at eviction time.  Equal
    scores leave in admission order; a hit refreshes ``p`` and the
    access time in place and does not change that order.

    The cache lives in float64 columns of ``p``, ``size`` and ``last``,
    one slot per admission, so slot order is admission order.  An evicted
    slot gets ``p = inf`` and thus ``q = inf``.  Each overflow computes
    ``q`` for all slots in one vectorised expression: O(slots) array
    work, where the slots are the cached objects plus those evicted since
    the columns were last compacted.  It evicts the first minimum
    alone when that covers the byte deficit.  Otherwise it partitions out
    the k smallest scores, keeps every slot tied with the k-th, and
    stable-sorts just those; k grows x4 until they cover the deficit.
    The Python-level work per overflow is O(victims).
    """
    if not samples:
        return 0.0
    slots = _INITIAL_SLOTS
    p = np.empty(slots)
    size = np.empty(slots)
    last = np.empty(slots)
    owner: list[int] = []  # slot -> obj_id, stale once the slot is evicted
    slot_of: dict[int, int] = {}  # cached obj_id -> slot
    used = 0
    hits = 0.0
    total = 0.0
    for sample in samples:
        weight = float(sample.size) if byte_weighted else 1.0
        total += weight
        slot = slot_of.get(sample.obj_id)
        if slot is not None:
            hits += weight
            p[slot] = sample.probability
            last[slot] = sample.time
            continue
        if sample.probability < delta or sample.size > capacity:
            continue
        deficit = used + sample.size - capacity
        if deficit > 0:
            top = len(owner)
            q = p[:top] / (size[:top] * np.maximum(sample.time - last[:top], 1e-9))
            first = int(q.argmin())
            if size[first] >= deficit:
                victims = [first]
            else:
                victims = _smallest_covering(q, size[:top], deficit)
            for victim in victims:
                used -= int(size[victim])
                del slot_of[owner[victim]]
                p[victim] = np.inf
        if len(owner) == slots:
            keep = np.flatnonzero(p != np.inf)
            live = len(keep)
            if 2 * live > slots:
                slots *= 2
            p, size, last = (_compacted(column, keep, slots) for column in (p, size, last))
            owner = [owner[index] for index in keep.tolist()]
            slot_of = dict(zip(owner, range(live)))
        slot = len(owner)
        owner.append(sample.obj_id)
        slot_of[sample.obj_id] = slot
        p[slot] = sample.probability
        size[slot] = sample.size
        last[slot] = sample.time
        used += sample.size
    return hits / total if total else 0.0


def _smallest_covering(q: np.ndarray, size: np.ndarray, deficit: int) -> list[int]:
    """The shortest prefix of slots in (q, slot) order whose sizes sum to
    at least ``deficit``: exactly what a stable sort of all slots by ``q``
    would evict first.  Sorts only the ``q <= k-th smallest`` slots, all
    of them, so ties at the boundary keep their slot order."""
    k = _PARTITION_K
    while True:
        every = k >= len(q)
        if every:
            candidates = np.arange(len(q))
        else:
            candidates = np.flatnonzero(q <= np.partition(q, k - 1)[k - 1])
        order = candidates[np.argsort(q[candidates], kind="stable")]
        covered = np.cumsum(size[order])
        cut = int(np.searchsorted(covered, deficit))
        if cut < len(order) or every:
            return order[: cut + 1].tolist()
        k *= 4


def _compacted(column: np.ndarray, keep: np.ndarray, slots: int) -> np.ndarray:
    """``column[keep]`` moved to the front of a fresh ``slots``-long column."""
    out = np.empty(slots)
    out[: len(keep)] = column[keep]
    return out


class ThresholdEstimator:
    """Maintains LHR's admission threshold across sliding windows."""

    OBJECTIVES = ("object", "byte")

    def __init__(
        self,
        initial_delta: float = 0.5,
        beta: float = 0.002,
        sample_fraction: float = 0.5,
        objective: str = "object",
        seed: int = 0,
    ):
        if objective not in self.OBJECTIVES:
            raise ValueError(f"objective must be one of {self.OBJECTIVES}")
        if not 0.0 <= initial_delta <= 1.0:
            raise ValueError("initial_delta must lie in [0, 1]")
        if beta < 0:
            raise ValueError("beta must be non-negative")
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must lie in (0, 1]")
        self.delta = initial_delta
        self.beta = beta
        self.sample_fraction = sample_fraction
        #: "object" scores shadow replays by request hits (the paper);
        #: "byte" scores them by hit bytes — an extension that trades a
        #: little object hit ratio for WAN-traffic reduction.
        self.objective = objective
        self._rng = np.random.default_rng(seed)
        self.history: list[float] = [initial_delta]
        #: Observation handle (:mod:`repro.obs`); LHR attaches its own.
        self.obs = NULL_OBS

    def candidates(self) -> list[float]:
        """The paper's candidate set, clipped to [0, 1] and deduplicated."""
        raw = [0.0, 0.5, self.delta - STEP, self.delta + STEP]
        clipped = sorted({min(max(value, 0.0), 1.0) for value in raw})
        return clipped

    def update(self, samples: list[WindowSample], capacity: int) -> float:
        """Re-estimate the threshold from one window's recorded requests.

        Returns the (possibly unchanged) threshold to use next window.
        """
        # Once per retraining window; the disabled span context is a
        # shared no-op.
        with self.obs.spans.span(
            "lhr.threshold_update", cat="lhr", samples=len(samples)
        ):
            return self._update(samples, capacity)

    def _update(self, samples: list[WindowSample], capacity: int) -> float:
        if samples and self.sample_fraction < 1.0:
            keep = max(int(len(samples) * self.sample_fraction), 1)
            idx = np.sort(self._rng.choice(len(samples), size=keep, replace=False))
            samples = [samples[i] for i in idx]
            # Replaying a sample shrinks the working set; shrink the shadow
            # capacity proportionally so cache pressure stays realistic.
            capacity = max(int(capacity * self.sample_fraction), 1)
        byte_weighted = self.objective == "byte"
        incumbent_ratio = shadow_hit_ratio(
            samples, capacity, self.delta, byte_weighted
        )
        best_delta = self.delta
        best_ratio = incumbent_ratio
        for candidate in self.candidates():
            if candidate == self.delta:
                continue
            ratio = shadow_hit_ratio(samples, capacity, candidate, byte_weighted)
            if ratio > best_ratio:
                best_ratio = ratio
                best_delta = candidate
        # Both update guards (Section 5.2.3): strictly better AND by more
        # than beta; otherwise keep the incumbent.
        previous = self.delta
        if best_delta != self.delta and best_ratio - incumbent_ratio > self.beta:
            self.delta = best_delta
        self.history.append(self.delta)
        if self.obs.learner.enabled:
            # Learner-telemetry fragment: the delta trajectory for this
            # window (folded into the row at window close).
            self.obs.learner.record_threshold(
                threshold_adopted=float(self.delta != previous),
                incumbent_ratio=incumbent_ratio,
                best_ratio=best_ratio,
            )
        if self.obs.enabled:
            adopted = self.delta != previous
            self.obs.registry.counter(
                "lhr_threshold_estimations_total",
                help="per-window threshold re-estimations",
            ).inc()
            if adopted:
                self.obs.registry.counter(
                    "lhr_threshold_adoptions_total",
                    help="re-estimations that changed the threshold",
                ).inc()
            self.obs.registry.gauge(
                "lhr_threshold_delta", help="current admission threshold"
            ).set(self.delta)
            self.obs.emit(
                "lhr.threshold_update",
                before=previous,
                after=self.delta,
                adopted=adopted,
                incumbent_ratio=round(incumbent_ratio, 6),
                best_ratio=round(best_ratio, 6),
                best_candidate=best_delta,
                samples=len(samples),
            )
        return self.delta
