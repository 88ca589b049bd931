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

:class:`HroBound` has two entry points over one window accumulator.
``process_scalar`` is the window accountant: it adds a request to the
open window and closes the window when it is full, building the closed
:class:`HroWindow` with that window's own top set.  Those top sets are
the supervision labels LHR trains on (Section 5.2.4; ``window_labels``),
and the accountant is all LHR runs per request.  ``process`` is the
bound: it classifies the request against the ranking in force, counts
the hit, then accounts the request.  The ranking of the two most recent
closed windows is computed once per close, when ``process``,
``hazard_threshold`` or ``hazard_rank`` first asks for it.

A request's hazard reads the last closed window and the open one, and
the ranking reads the last two closed windows, so the bound keeps just
those two and its memory does not grow with the trace.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from collections import deque

from repro.bounds.belady import BoundResult
from repro.bounds.hazard import hazard_knapsack, hazard_top_set
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
    """Streaming HRO over one window accumulator.

    :meth:`process` is the bound: it returns the HRO hit/miss
    classification of a request and counts it.  :meth:`process_scalar`
    is the window accountant alone, which is all LHR runs.
    :attr:`windows` holds the two most recent closed windows, oldest
    first: the hazard and the ranking read nothing older.
    :attr:`windows_closed` counts every close and numbers each window's
    ``index``.  ``on_window`` may be set to a callable invoked with each
    closed :class:`HroWindow` — LHR hooks its detection/training
    pipeline there, and code that needs every closed window collects
    them there.
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
        #: The ranking in force, ``(threshold, fill, ranks)`` (see
        #: :meth:`_ranking`): empty before the first close, and None from
        #: each close until something asks for it.
        self._ranked: tuple[float, int, dict[int, int]] | None = (0.0, 0, {})
        self._seen: set[int] = set()
        # Non-Poisson estimators need per-content IRT samples and fitted
        # models; each close refits them and fixes the hazards the next
        # ranking sorts.
        self._irts: dict[int, deque] = {}
        self._last_time: dict[int, float] = {}
        self._models: dict = {}
        self._model_hazards: tuple[list[int], np.ndarray, np.ndarray] | None = None
        #: The two most recent closed windows, oldest first.
        self.windows: list[HroWindow] = []
        #: Windows closed so far; each window's ``index`` is its place.
        self.windows_closed = 0
        self.on_window = None
        #: The cacheability verdict :meth:`process` reached for the last
        #: request, hit or miss: the content is in the ranking's top set
        #: or its hazard beats the marginal one (always True before the
        #: first close).
        self.last_would_cache = True
        #: Observation handle (:mod:`repro.obs`): window closes record
        #: their top-set ranking as an ``hro.rank`` span.
        self.obs = NULL_OBS
        self.hits = 0
        self.hit_bytes = 0
        self.requests = 0
        self.total_bytes = 0

    def _hazard(self, obj_id: int, size: int, now: float) -> float:
        """The size-normalized hazard a request for ``obj_id`` arriving at
        ``now`` is classified with, read before the request is accounted:
        a fitted model's hazard at the content's age, else its Poisson
        rate over the last closed window and the open one."""
        if self.hazard_model != "poisson":
            model = self._models.get(obj_id)
            if model is not None:
                age = max(now - self._last_time.get(obj_id, now), 0.0)
                return model.hazard(age) / size
        last = self.windows[-1]
        acc = self._accumulator
        # The ``+ 1`` counts the request being classified, so its own
        # arrival vouches for it: ROADMAP item 2's self-counting leak (a
        # hazard rate is the intensity just *before* an arrival).
        count = last.counts.get(obj_id, 0) + acc.counts.get(obj_id, 0) + 1
        start = acc.start_time
        duration = now - start if start is not None else 0.0
        if duration < 1e-9:
            duration = 1e-9
        return count / ((last.duration + duration) * size)

    def _observe_irt_scalar(self, obj_id: int, time: float) -> None:
        previous = self._last_time.get(obj_id)
        if previous is not None and time > previous:
            gaps = self._irts.get(obj_id)
            if gaps is None:
                gaps = deque(maxlen=16)
                self._irts[obj_id] = gaps
            gaps.append(time - previous)
        self._last_time[obj_id] = time

    def process(self, req: Request) -> bool:
        """Classify one request under HRO, count it, then account it.

        The request is cacheable iff its hazard strictly exceeds the
        marginal hazard of the ranking in force, or its content is in
        that ranking's top set (the tie-break: among equal-hazard
        contents only the knapsack winners count as cached).  It is a hit
        iff cacheable and requested before.  The verdict is left in
        :attr:`last_would_cache`; :meth:`process_scalar` then adds the
        request to the open window.
        """
        obj_id = req.obj_id
        size = req.size
        time = req.time
        if self.windows:
            threshold, fill, ranks = self._ranking()
            # The top set is the ranking's first ``fill`` places.
            would_cache = (
                self._hazard(obj_id, size, time) > threshold
                or ranks.get(obj_id, fill) < fill
            )
        else:
            # Before the first window closes there is no ranking yet; any
            # re-request counts (the InfiniteCap rule), which errs on the
            # generous side and so preserves the upper-bound property.
            would_cache = True
        hit = would_cache and obj_id in self._seen
        self.last_would_cache = would_cache
        if hit:
            self.hits += 1
            self.hit_bytes += size
        self.requests += 1
        self.total_bytes += size
        self._seen.add(obj_id)
        self.process_scalar(obj_id, size, time)
        return hit

    def process_scalar(self, obj_id: int, size: int, time: float) -> None:
        """Add one request to the open window, and close the window once
        it holds ``window_bytes`` of distinct content and at least
        ``min_window_requests`` requests.

        The window accountant alone: no classification, no ranking.  LHR
        calls only this, since its labels are each closed window's own
        top set; :meth:`process` calls it after classifying.
        """
        acc = self._accumulator
        if acc.start_time is None:
            acc.start_time = time
        acc.end_time = time
        acc.num_requests += 1
        counts = acc.counts
        if obj_id in counts:
            counts[obj_id] += 1
        else:
            counts[obj_id] = 1
            acc.sizes[obj_id] = size
            acc.unique_bytes += size
        if self.hazard_model != "poisson":
            self._observe_irt_scalar(obj_id, time)
        if (
            acc.unique_bytes >= self.window_bytes
            and acc.num_requests >= self.min_window_requests
        ):
            self._close_window()

    def _close_window(self) -> None:
        acc = self._accumulator
        # Span only HRO's own close work: the closed window's top set (and
        # the refit of non-Poisson models).  The on_window callback —
        # LHR's detection/training pipeline — records its own spans.
        with self.obs.spans.span("hro.rank", cat="hro"):
            # The window takes over the accumulator's dicts; a fresh
            # accumulator replaces it below.
            window = HroWindow(
                index=self.windows_closed,
                num_requests=acc.num_requests,
                unique_bytes=acc.unique_bytes,
                duration=acc.duration,
                counts=acc.counts,
                sizes=acc.sizes,
                top_set=compute_top_set(
                    acc.counts, acc.sizes, acc.duration, self.capacity
                ),
            )
            self.windows_closed += 1
            self.windows.append(window)
            del self.windows[:-2]
            self._accumulator = _WindowAccumulator()
            self._ranked = None
            if self.hazard_model != "poisson":
                self._refit_models(acc.end_time)
        if self.on_window is not None:
            self.on_window(window)

    def _last_two_windows(self) -> tuple[dict[int, int], dict[int, int], float]:
        """Combined counts, sizes and duration of the two most recent
        closed windows (the runtime estimator's span)."""
        counts: dict[int, int] = {}
        sizes: dict[int, int] = {}
        duration = 0.0
        for window in self.windows[-2:]:
            for obj_id, count in window.counts.items():
                counts[obj_id] = counts.get(obj_id, 0) + count
            sizes.update(window.sizes)
            duration += window.duration
        return counts, sizes, max(duration, 1e-9)

    def _refit_models(self, close_time: float) -> None:
        """Fit per-content hazard models from the windowed IRT samples and
        fix the hazards the next ranking sorts: the fitted model's hazard
        at the close, or the Poisson rate where fewer than three gaps were
        seen."""
        counts, sizes, duration = self._last_two_windows()
        models = {}
        hazards = []
        for obj_id, count in counts.items():
            gaps = self._irts.get(obj_id)
            if gaps and len(gaps) >= 3:
                model = models[obj_id] = fit_hazard_model(self.hazard_model, list(gaps))
                age = max(close_time - self._last_time.get(obj_id, close_time), 0.0)
                hazards.append(model.hazard(age) / sizes[obj_id])
            else:
                hazards.append(count / (duration * sizes[obj_id]))
        self._models = models
        ids = list(counts)
        self._model_hazards = (
            ids,
            np.asarray(hazards),
            np.asarray([sizes[i] for i in ids], dtype=float),
        )
        # Bound the IRT store to contents seen in the last two windows.
        stale = [oid for oid in self._irts if oid not in counts]
        for oid in stale:
            self._irts.pop(oid, None)
            self._last_time.pop(oid, None)

    def _ranking(self) -> tuple[float, int, dict[int, int]]:
        """The ranking in force, ``(threshold, fill, ranks)``.

        It ranks the contents of the two most recent closed windows by
        size-normalized hazard (Poisson rates, or the refit models'
        hazards at the close) in one :func:`hazard_knapsack` call, on the
        first ask after each close.  ``ranks`` maps each content to its
        place (0 = hottest), the top set is the first ``fill`` places,
        and ``threshold`` is the marginal hazard.
        """
        ranking = self._ranked
        if ranking is None:
            if self.hazard_model == "poisson":
                ids, hazards, sizes = _poisson_hazards(*self._last_two_windows())
            else:
                ids, hazards, sizes = self._model_hazards
            order, fill, threshold = hazard_knapsack(hazards, sizes, self.capacity)
            ranked = [ids[i] for i in order.tolist()]
            ranking = (threshold, fill, dict(zip(ranked, range(len(ranked)))))
            self._ranked = ranking
        return ranking

    def hazard_rank(self, obj_id: int) -> int | None:
        """The content's place in the ranking in force (0 = hottest), or
        ``None`` before the first window closes or when the content was
        not requested in the last two closed windows."""
        return self._ranking()[2].get(obj_id)

    @property
    def hazard_threshold(self) -> float:
        """The marginal size-normalized hazard of the ranking in force
        (0 before the first window closes)."""
        return self._ranking()[0]

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


def _poisson_hazards(
    counts: dict[int, int],
    sizes: dict[int, int],
    duration: float,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Content ids, size-normalized Poisson hazards
    ``count / duration / size`` and sizes, as :func:`hazard_knapsack`
    takes them."""
    ids = list(counts)
    size_arr = np.asarray([sizes[i] for i in ids], dtype=np.float64)
    hazard_arr = (
        np.asarray([counts[i] for i in ids], dtype=np.float64)
        / max(duration, 1e-9)
        / size_arr
    )
    return ids, hazard_arr, size_arr


def compute_top_set(
    counts: dict[int, int],
    sizes: dict[int, int],
    duration: float,
    capacity: int,
) -> frozenset[int]:
    """The HRO cache set for given window statistics."""
    return hazard_top_set(*_poisson_hazards(counts, sizes, duration), capacity)


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
