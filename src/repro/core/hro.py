"""HRO — the paper's online upper bound on OPT (Section 3).

HRO approximates the hazard-rate bound of Panigrahy et al. without
knowing the true inter-request distributions:

1. Requests are grouped into non-overlapping sliding windows (footnote 3)
   sized by *unique bytes* — a window closes once the distinct contents
   requested in it exceed ``window_bytes`` (4x the cache size by
   default, per Section 5.1).
2. Within a window the request process of each content is approximated
   as Poisson, so its hazard rate is its empirical rate
   ``lambda_i = count_i / window_duration`` — constant in time.
3. The size-normalized hazard ``lambda_i / s_i`` ranks contents; the
   fractional-knapsack prefix that fills the cache is the "HRO cache
   set" for the *next* window (no look-ahead: decisions about window
   ``k+1`` use only data from window ``k``).
4. A request is classified a hit iff its content is in the current HRO
   set and has been requested before.

The per-window hit/miss classifications are also the supervision labels
LHR trains on (Section 5.2.4); ``window_labels`` exposes them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from collections import deque

from repro.bounds.belady import BoundResult
from repro.bounds.hazard import hazard_ranks, hazard_top_set
from repro.core.hazard_models import HAZARD_MODELS, fit_hazard_model
from repro.obs import NULL_OBS
from repro.traces.request import Request, Trace


@dataclass(slots=True)
class _WindowAccumulator:
    """Running statistics of the currently open sliding window."""

    counts: dict[int, int] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    unique_bytes: int = 0
    start_time: float | None = None
    end_time: float = 0.0
    num_requests: int = 0

    @property
    def duration(self) -> float:
        if self.start_time is None:
            return 0.0
        return max(self.end_time - self.start_time, 1e-9)


@dataclass(frozen=True)
class HroWindow:
    """Summary of one closed sliding window."""

    index: int
    num_requests: int
    unique_bytes: int
    duration: float
    counts: dict[int, int]
    sizes: dict[int, int]
    top_set: frozenset[int]

    def hazard_rates(self) -> dict[int, float]:
        """Size-normalized Poisson hazards ``count / (duration * size)``."""
        return {
            obj_id: count / (self.duration * self.sizes[obj_id])
            for obj_id, count in self.counts.items()
        }


class HroBound:
    """Streaming HRO computation.

    Feed requests one at a time with :meth:`process`; it returns the HRO
    hit/miss classification for the request.  Closed windows are kept in
    :attr:`windows` (statistics only).  ``on_window`` may be set to a
    callable invoked with each closed :class:`HroWindow` — LHR hooks its
    detection/training pipeline there.
    """

    def __init__(
        self,
        capacity: int,
        window_multiple: float = 4.0,
        min_window_requests: int = 0,
        hazard_model: str = "poisson",
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if window_multiple <= 0:
            raise ValueError("window_multiple must be positive")
        if hazard_model.lower() not in HAZARD_MODELS:
            raise ValueError(
                f"hazard_model must be one of {HAZARD_MODELS}, got {hazard_model!r}"
            )
        #: Which per-content hazard estimator to use.  "poisson" is the
        #: paper's choice (constant empirical rate); "weibull" and
        #: "hyperexponential" are the richer estimators the paper leaves
        #: as future work (see repro.core.hazard_models).
        self.hazard_model = hazard_model.lower()
        self.capacity = capacity
        self.window_bytes = int(capacity * window_multiple)
        #: Floor on requests per window.  The paper sizes windows purely
        #: by unique bytes (4x cache), which at full trace scale always
        #: spans thousands of requests; replaying at reduced scale can
        #: shrink a window below what the learner needs, so a practical
        #: floor keeps the training set meaningful.
        self.min_window_requests = min_window_requests
        self._accumulator = _WindowAccumulator()
        # Statistics of the previous (closed) window; runtime hazards are
        # computed over previous + current so the estimate is online and
        # keeps updating as requests arrive within the open window.
        self._prev_counts: dict[int, int] = {}
        self._prev_duration = 0.0
        #: Combined previous+current window elapsed time, refreshed once
        #: per request (and at rotation) instead of recomputed from the
        #: accumulator for every hazard query.
        self._elapsed = 1e-9
        self._combined_sizes: dict[int, int] = {}
        #: Hazard admission threshold: the marginal size-normalized hazard
        #: of the fractional-knapsack prefix, refreshed at window closes.
        #: A request passes with a strictly larger hazard, or by being in
        #: the materialized top set (the tie-break: among equal-hazard
        #: contents only the knapsack winners count as cached).
        self._hazard_threshold = 0.0
        self._top_set: frozenset[int] = frozenset()
        self._have_threshold = False
        self._seen: set[int] = set()
        # Non-Poisson estimators need per-content IRT samples and fitted
        # models (refreshed at window closes).
        self._irts: dict[int, deque] = {}
        self._last_time: dict[int, float] = {}
        self._models: dict = {}
        self.windows: list[HroWindow] = []
        self.on_window = None
        #: When True, :meth:`process` stores each request's cacheability
        #: verdict in :attr:`last_would_cache` and window closes refresh
        #: the per-content hazard ranking for :meth:`hazard_rank`.
        #: Costs one attribute check per request when off; decision
        #: tracing (:mod:`repro.obs.trace`) turns it on.
        self.track_decisions = False
        self.last_would_cache = True
        self._ranks: dict[int, int] = {}
        #: Observation handle (:mod:`repro.obs`): window closes record the
        #: hazard re-ranking as an ``hro.rank`` span.
        self.obs = NULL_OBS
        self.hits = 0
        self.hit_bytes = 0
        self.requests = 0
        self.total_bytes = 0

    def _hazard(self, obj_id: int, size: int, now: float | None = None) -> float:
        if self.hazard_model != "poisson" and now is not None:
            model = self._models.get(obj_id)
            if model is not None:
                age = max(now - self._last_time.get(obj_id, now), 0.0)
                return model.hazard(age) / size
        count = self._prev_counts.get(obj_id, 0) + self._accumulator.counts.get(
            obj_id, 0
        )
        return count / (self._elapsed * size)

    def _observe_irt_scalar(self, obj_id: int, time: float) -> None:
        previous = self._last_time.get(obj_id)
        if previous is not None and time > previous:
            gaps = self._irts.get(obj_id)
            if gaps is None:
                gaps = deque(maxlen=16)
                self._irts[obj_id] = gaps
            gaps.append(time - previous)

    def process(self, req: Request) -> bool:
        """Classify one request under HRO and update window state."""
        return self.process_scalar(req.obj_id, req.size, req.time)

    def process_scalar(self, obj_id: int, size: int, time: float) -> bool:
        """``process`` without a ``Request``; ``process`` and LHR both
        call it.

        The window accumulator is updated in place and the
        combined-window elapsed time cached once per request, so hazard
        queries stay O(1) dict lookups.
        """
        acc = self._accumulator
        start = acc.start_time
        if start is None:
            acc.start_time = start = time
        acc.end_time = time
        acc.num_requests += 1
        counts = acc.counts
        if obj_id in counts:
            counts[obj_id] += 1
        else:
            counts[obj_id] = 1
            acc.sizes[obj_id] = size
            acc.unique_bytes += size
        duration = time - start
        if duration < 1e-9:
            duration = 1e-9
        self._elapsed = self._prev_duration + duration
        if self.hazard_model != "poisson":
            self._observe_irt_scalar(obj_id, time)
        if self._have_threshold:
            seen = obj_id in self._seen
            if seen or self.track_decisions:
                would_cache = (
                    self._hazard(obj_id, size, time) > self._hazard_threshold
                    or obj_id in self._top_set
                )
            else:
                # The verdict is only needed for seen contents (a first
                # request can never hit) unless a tracer wants it.
                would_cache = False
            hit = seen and would_cache
        else:
            # Before the first window closes there is no ranking yet; any
            # re-request counts (the InfiniteCap rule), which errs on the
            # generous side and so preserves the upper-bound property.
            would_cache = True
            hit = obj_id in self._seen
        if self.track_decisions:
            self.last_would_cache = would_cache
        if hit:
            self.hits += 1
            self.hit_bytes += size
        self.requests += 1
        self.total_bytes += size
        self._seen.add(obj_id)
        if self.hazard_model != "poisson":
            self._last_time[obj_id] = time
        if (
            acc.unique_bytes >= self.window_bytes
            and acc.num_requests >= self.min_window_requests
        ):
            self._close_window()
        return hit

    def _close_window(self) -> None:
        # Span only the hazard re-ranking; the on_window callback (LHR's
        # detection/training pipeline) records its own spans.
        with self.obs.spans.span("hro.rank", cat="hro"):
            window = self._rank_and_rotate()
        if self.on_window is not None:
            self.on_window(window)

    def _rank_and_rotate(self) -> HroWindow:
        acc = self._accumulator
        window = HroWindow(
            index=len(self.windows),
            num_requests=acc.num_requests,
            unique_bytes=acc.unique_bytes,
            duration=acc.duration,
            counts=dict(acc.counts),
            sizes=dict(acc.sizes),
            top_set=compute_top_set(acc.counts, acc.sizes, acc.duration, self.capacity),
        )
        self.windows.append(window)
        # Refresh the runtime hazard threshold from the combined stats of
        # the two most recent windows (matching the runtime estimator).
        combined = dict(self._prev_counts)
        for obj_id, count in acc.counts.items():
            combined[obj_id] = combined.get(obj_id, 0) + count
        sizes = {**self._combined_sizes, **acc.sizes}
        duration = max(self._prev_duration + acc.duration, 1e-9)
        self._hazard_threshold = marginal_hazard(
            combined, sizes, duration, self.capacity
        )
        self._top_set = frozenset(
            compute_top_set(combined, sizes, duration, self.capacity)
        )
        if self.track_decisions:
            self._ranks = compute_hazard_ranks(combined, sizes, duration)
        self._have_threshold = True
        if self.hazard_model != "poisson":
            self._refit_models(combined, sizes, duration, acc.end_time)
        self._prev_counts = dict(acc.counts)
        self._prev_duration = acc.duration
        self._combined_sizes = dict(acc.sizes)
        self._accumulator = _WindowAccumulator()
        # Fresh accumulator has zero duration: elapsed is the previous
        # window's span (floored like the reference computation).
        self._elapsed = max(self._prev_duration, 1e-9)
        return window

    def _refit_models(
        self,
        combined: dict[int, int],
        sizes: dict[int, int],
        duration: float,
        close_time: float,
    ) -> None:
        """Fit per-content hazard models from the windowed IRT samples and
        recompute the admission threshold/top set in model terms."""
        models = {}
        hazards: dict[int, float] = {}
        for obj_id, count in combined.items():
            gaps = self._irts.get(obj_id)
            if gaps and len(gaps) >= 3:
                models[obj_id] = fit_hazard_model(self.hazard_model, list(gaps))
                age = max(close_time - self._last_time.get(obj_id, close_time), 0.0)
                hazards[obj_id] = models[obj_id].hazard(age) / sizes[obj_id]
            else:
                hazards[obj_id] = count / (duration * sizes[obj_id])
        self._models = models
        # Re-rank under the fitted models so runtime comparisons use a
        # threshold in the same units.
        ids = list(hazards)
        if ids:
            import numpy as _np

            hazard_arr = _np.asarray([hazards[i] for i in ids])
            size_arr = _np.asarray([sizes[i] for i in ids], dtype=float)
            order = _np.argsort(hazard_arr, kind="stable")[::-1]
            cumulative = _np.cumsum(size_arr[order])
            inside = cumulative < self.capacity
            if inside.all():
                self._hazard_threshold = 0.0
            else:
                marginal = int(_np.argmin(inside))
                self._hazard_threshold = float(hazard_arr[order[marginal]])
            self._top_set = frozenset(
                hazard_top_set(ids, hazard_arr, size_arr, self.capacity)
            )
            if self.track_decisions:
                self._ranks = hazard_ranks(ids, hazard_arr)
        # Bound the IRT store to contents seen in the last two windows.
        stale = [oid for oid in self._irts if oid not in combined]
        for oid in stale:
            self._irts.pop(oid, None)
            self._last_time.pop(oid, None)

    def hazard_rank(self, obj_id: int) -> int | None:
        """The content's position in the current hazard ranking (0 =
        hottest), or ``None`` before the first window closes or when
        ``track_decisions`` is off or the content is unranked."""
        return self._ranks.get(obj_id)

    @property
    def hazard_threshold(self) -> float:
        """The current marginal size-normalized hazard (0 before the
        first window closes)."""
        return self._hazard_threshold

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def result(self) -> BoundResult:
        return BoundResult(
            name="hro",
            requests=self.requests,
            hits=self.hits,
            hit_bytes=self.hit_bytes,
            total_bytes=self.total_bytes,
        )


def compute_top_set(
    counts: dict[int, int],
    sizes: dict[int, int],
    duration: float,
    capacity: int,
) -> frozenset[int]:
    """The HRO cache set for given window statistics."""
    if not counts:
        return frozenset()
    ids = list(counts)
    size_arr = np.asarray([sizes[i] for i in ids], dtype=np.float64)
    hazard_arr = (
        np.asarray([counts[i] for i in ids], dtype=np.float64)
        / max(duration, 1e-9)
        / size_arr
    )
    return frozenset(hazard_top_set(ids, hazard_arr, size_arr, capacity))


def compute_hazard_ranks(
    counts: dict[int, int],
    sizes: dict[int, int],
    duration: float,
) -> dict[int, int]:
    """Dense hazard ranking for given window statistics (0 = hottest)."""
    if not counts:
        return {}
    ids = list(counts)
    size_arr = np.asarray([sizes[i] for i in ids], dtype=np.float64)
    hazard_arr = (
        np.asarray([counts[i] for i in ids], dtype=np.float64)
        / max(duration, 1e-9)
        / size_arr
    )
    return hazard_ranks(ids, hazard_arr)


def marginal_hazard(
    counts: dict[int, int],
    sizes: dict[int, int],
    duration: float,
    capacity: int,
) -> float:
    """The size-normalized hazard of the marginal content in the
    fractional-knapsack prefix — contents at or above this threshold form
    the HRO cache set."""
    if not counts:
        return 0.0
    ids = list(counts)
    size_arr = np.asarray([sizes[i] for i in ids], dtype=np.float64)
    hazard_arr = (
        np.asarray([counts[i] for i in ids], dtype=np.float64)
        / max(duration, 1e-9)
        / size_arr
    )
    order = np.argsort(hazard_arr, kind="stable")[::-1]
    cumulative = np.cumsum(size_arr[order])
    inside = cumulative < capacity
    if inside.all():
        return 0.0  # everything fits: any re-request is a potential hit
    marginal_index = int(np.argmin(inside))  # first content that overflows
    return float(hazard_arr[order[marginal_index]])


def window_labels(window: HroWindow, requests: Sequence[Request]) -> np.ndarray:
    """HRO supervision labels for the requests of ``window``.

    Label 1 iff the request's content belongs to the window's own top
    set — "what optimal caching would have admitted" (Section 5.2.4).
    """
    return window_labels_for_ids(window, [req.obj_id for req in requests])


def window_labels_for_ids(window: HroWindow, obj_ids: Sequence[int]) -> np.ndarray:
    """``window_labels`` from bare content ids (the columnar path keeps
    per-window ids, not ``Request`` objects)."""
    top_set = window.top_set
    return np.asarray([1.0 if obj_id in top_set else 0.0 for obj_id in obj_ids])


def hro_bound(
    trace: Trace | Sequence[Request],
    capacity: int,
    window_multiple: float = 4.0,
    min_window_requests: int = 0,
    hazard_model: str = "poisson",
) -> BoundResult:
    """Run HRO over a full trace and return the aggregate bound."""
    bound = HroBound(capacity, window_multiple, min_window_requests, hazard_model)
    for req in trace:
        bound.process(req)
    return bound.result()
