"""Per-request decision traces and the miss taxonomy.

The aggregate hit ratio says *that* a policy missed; the decision trace
says *why*.  A :class:`DecisionTracer` attached to a policy (via
``CachePolicy.attach_tracer`` or ``simulate(..., tracer=...)``) records,
for every request, the admission verdict with its inputs — the admission
probability ``p_i``, the current threshold ``delta``, the object size,
and the window hazard rank when the policy can supply one — plus the
eviction victims the request displaced.

On top of the raw records the tracer maintains a streaming **miss
taxonomy** classifying every miss into exactly one of four classes:

* ``cold`` — first request of a content that *is* re-referenced later.
* ``one_hit_wonder`` — first (and only) request of a content that is
  never re-referenced; the class B-LRU's second-hit admission targets.
  Cold vs one-hit-wonder needs the future, so first-occurrence misses
  are counted as cold while streaming and split at :meth:`taxonomy`.
* ``admission_rejected`` — the content was seen before but was not
  resident because its last admission decision rejected it (for LHR:
  ``p_i < delta``; the tracer counts those separately too).
* ``evicted_early`` — the content was admitted and then evicted before
  this re-reference; the miss is attributed to the request that
  displaced it.

The class counts always sum exactly to the total number of misses: every
miss is either a first occurrence (cold ∪ one-hit-wonder) or a re-miss,
and a re-missed content was last either rejected or evicted.

Alongside the taxonomy the tracer keeps **residency diagnostics**, which
measure the waste admission control exists to cut
(:meth:`DecisionTracer.residency`).  An admitted miss opens a residency,
each hit on the content adds one hit to it, and each eviction closes it
at the evicting request's time.  The tracer reports the admission ratio
(admitted misses over misses), the dead-on-arrival ratio (closed
residencies that served no hit), the eviction age (time from admission
to eviction; mean and p90) and the mean hits per residency.

Records may be ring-buffered (``buffer=N`` keeps the last N) and sampled
(``sample_every=K`` keeps every K-th request); the taxonomy and residency
counters always cover every request regardless.  The divergence analyzer
(:mod:`repro.obs.analyze`) requires complete traces — check
:attr:`DecisionTracer.is_complete`.

This module depends only on :mod:`repro.util`, which depends on nothing
else in the package, so it can be imported from anywhere (policies,
engine, metrics) without cycles.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from repro.util.stats import PercentileTracker, RunningMean

#: Miss taxonomy class names, in report order.
MISS_COLD = "cold"
MISS_ONE_HIT_WONDER = "one_hit_wonder"
MISS_ADMISSION_REJECTED = "admission_rejected"
MISS_EVICTED_EARLY = "evicted_early"
MISS_CLASSES = (
    MISS_COLD,
    MISS_ONE_HIT_WONDER,
    MISS_ADMISSION_REJECTED,
    MISS_EVICTED_EARLY,
)

# Per-content residency states of the streaming classifier.
_RESIDENT = 0  # last interaction left the content cached (hit or admit)
_REJECTED = 1  # last admission decision declined it
_EVICTED = 2  # admitted at some point, then displaced


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One request's decision, with the inputs that produced it.

    ``admitted`` is the admission verdict on a miss and ``None`` on a
    hit (nothing to admit).  ``probability``/``threshold`` are the
    policy's decision inputs when it has them (LHR's ``p_i``/``delta``;
    HRO's size-normalized hazard threshold), ``hazard_rank`` the
    content's position in the current window's hazard ranking (0 =
    hottest) when tracked.  ``victims`` lists the contents this request
    evicted: on a miss its admission's victims, and on a hit any that a
    hook evicted (an S4LRU promotion cascades out of the lowest
    segment).  ``miss_class`` is the streaming
    classification — ``cold`` entries may resolve to one-hit-wonders
    once the whole trace has been seen (:meth:`DecisionTracer.class_of`).
    """

    index: int
    time: float
    obj_id: int
    size: int
    hit: bool
    admitted: bool | None = None
    probability: float | None = None
    threshold: float | None = None
    hazard_rank: int | None = None
    victims: tuple[int, ...] = ()
    miss_class: str | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "time": self.time,
            "obj_id": self.obj_id,
            "size": self.size,
            "hit": self.hit,
            "admitted": self.admitted,
            "probability": self.probability,
            "threshold": self.threshold,
            "hazard_rank": self.hazard_rank,
            "victims": list(self.victims),
            "miss_class": self.miss_class,
        }


@dataclass(frozen=True)
class TraceConfig:
    """Picklable recipe for building a :class:`DecisionTracer`.

    Sweep workers can't ship a live tracer in, so they ship this and
    build one per cell (:func:`repro.sim.parallel.run_sweep`).
    """

    buffer: int | None = None
    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.buffer is not None and self.buffer <= 0:
            raise ValueError("buffer must be positive (or None for unbounded)")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")

    def build(self) -> "DecisionTracer":
        return DecisionTracer(buffer=self.buffer, sample_every=self.sample_every)


@dataclass
class MissTaxonomy:
    """Final miss classification counts; classes sum to total misses."""

    cold: int = 0
    one_hit_wonder: int = 0
    admission_rejected: int = 0
    evicted_early: int = 0
    #: Of the rejected misses, how many carried ``p_i < delta`` inputs.
    rejected_below_threshold: int = 0
    #: Evicted-early misses whose evictor is unknown (no eviction was
    #: reported for the content — e.g. HRO's implicit set rotations).
    unattributed_evictions: int = 0

    @property
    def total(self) -> int:
        return (
            self.cold
            + self.one_hit_wonder
            + self.admission_rejected
            + self.evicted_early
        )

    def counts(self) -> dict[str, int]:
        return {
            MISS_COLD: self.cold,
            MISS_ONE_HIT_WONDER: self.one_hit_wonder,
            MISS_ADMISSION_REJECTED: self.admission_rejected,
            MISS_EVICTED_EARLY: self.evicted_early,
        }

    def as_dict(self) -> dict:
        return {
            **self.counts(),
            "total_misses": self.total,
            "rejected_below_threshold": self.rejected_below_threshold,
            "unattributed_evictions": self.unattributed_evictions,
        }


class DecisionTracer:
    """Streaming per-request decision recorder and miss classifier.

    Policies call :meth:`observe` once per request, after it has run
    (see ``CachePolicy._request_traced``); anything that produces per-request
    verdicts — HRO included — can feed one directly.  The tracer never
    touches the policy: it is pure bookkeeping, picklable, and safe to
    ship across process boundaries with a sweep result.
    """

    def __init__(self, buffer: int | None = None, sample_every: int = 1):
        if buffer is not None and buffer <= 0:
            raise ValueError("buffer must be positive (or None for unbounded)")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.buffer = buffer
        self.sample_every = sample_every
        self.records: deque[DecisionRecord] | list[DecisionRecord]
        self.records = deque(maxlen=buffer) if buffer is not None else []
        self.requests = 0
        self.hits = 0
        self.misses = 0
        #: Streaming class counts (cold still holding future one-hit-wonders).
        self._class_counts = Counter()
        self.rejected_below_threshold = 0
        #: evicted-early attribution: evicting obj_id -> misses it caused.
        self.evictor_counts: Counter = Counter()
        self._unattributed = 0
        self._occurrences: dict[int, int] = {}
        self._state: dict[int, int] = {}
        #: victim obj_id -> (evicting request index, evicting obj_id).
        self._evicted_by: dict[int, tuple[int, int]] = {}
        #: contents whose first request was a (cold) miss — the pool the
        #: one-hit-wonder split draws from at taxonomy time.
        self._cold_ids: set[int] = set()
        #: Residency diagnostics: misses admitted, each cached content's
        #: open residency as ``[admitted_at, hits]``, and what closed ones
        #: measured.
        self.admitted_misses = 0
        self._residencies: dict[int, list] = {}
        self.eviction_ages = RunningMean()
        self.eviction_age_percentiles = PercentileTracker(capacity=8192, seed=1)
        self.hits_per_residency = RunningMean()
        self.dead_on_arrival = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def observe(
        self,
        req,
        hit: bool,
        admitted: bool | None = None,
        probability: float | None = None,
        threshold: float | None = None,
        hazard_rank: int | None = None,
        victims: tuple[int, ...] = (),
    ) -> None:
        """Record one request's decision; ``req`` needs
        ``time``/``obj_id``/``size``/``index`` attributes."""
        index = req.index if req.index >= 0 else self.requests
        obj_id = req.obj_id
        occurrences = self._occurrences.get(obj_id, 0)
        self._occurrences[obj_id] = occurrences + 1
        self.requests += 1
        residencies = self._residencies
        # Victims leave before the request's own residency moves.
        for victim in victims:
            residency = residencies.pop(victim, None)
            if residency is not None:
                self._close_residency(residency, req.time)
        miss_class: str | None = None
        if hit:
            self.hits += 1
            self._state[obj_id] = _RESIDENT
            residency = residencies.get(obj_id)
            if residency is not None:
                residency[1] += 1
        else:
            self.misses += 1
            miss_class = self._classify_miss(
                obj_id, occurrences, probability, threshold
            )
            self._class_counts[miss_class] += 1
            if admitted:
                self._state[obj_id] = _RESIDENT
                self.admitted_misses += 1
                residencies[obj_id] = [req.time, 0]
            else:
                self._state[obj_id] = _REJECTED
        for victim in victims:
            self._state[victim] = _EVICTED
            self._evicted_by[victim] = (index, obj_id)
        if index % self.sample_every == 0:
            self.records.append(
                DecisionRecord(
                    index=index,
                    time=req.time,
                    obj_id=obj_id,
                    size=req.size,
                    hit=hit,
                    admitted=admitted,
                    probability=probability,
                    threshold=threshold,
                    hazard_rank=hazard_rank,
                    victims=tuple(victims),
                    miss_class=miss_class,
                )
            )

    def _close_residency(self, residency: list, now: float) -> None:
        admitted_at, hits = residency
        age = max(now - admitted_at, 0.0)
        self.eviction_ages.add(age)
        self.eviction_age_percentiles.add(age)
        self.hits_per_residency.add(hits)
        if hits == 0:
            self.dead_on_arrival += 1

    def _classify_miss(
        self,
        obj_id: int,
        occurrences: int,
        probability: float | None,
        threshold: float | None,
    ) -> str:
        if occurrences == 0:
            self._cold_ids.add(obj_id)
            return MISS_COLD
        state = self._state.get(obj_id)
        if state == _EVICTED:
            attribution = self._evicted_by.get(obj_id)
            if attribution is not None:
                self.evictor_counts[attribution[1]] += 1
            else:
                self._unattributed += 1
            return MISS_EVICTED_EARLY
        if state == _RESIDENT:
            # A resident content missing means residency was invalidated
            # without an eviction report — HRO's window rotations do this.
            self._unattributed += 1
            return MISS_EVICTED_EARLY
        if (
            probability is not None
            and threshold is not None
            and probability < threshold
        ):
            self.rejected_below_threshold += 1
        return MISS_ADMISSION_REJECTED

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """True when every request produced a retained record."""
        return self.sample_every == 1 and len(self.records) == self.requests

    def one_hit_wonders(self) -> set[int]:
        """Contents requested exactly once whose single request missed."""
        return {
            obj_id
            for obj_id in self._cold_ids
            if self._occurrences.get(obj_id) == 1
        }

    def taxonomy(self) -> MissTaxonomy:
        """The final miss taxonomy; class counts sum to total misses."""
        wonders = len(self.one_hit_wonders())
        return MissTaxonomy(
            cold=self._class_counts[MISS_COLD] - wonders,
            one_hit_wonder=wonders,
            admission_rejected=self._class_counts[MISS_ADMISSION_REJECTED],
            evicted_early=self._class_counts[MISS_EVICTED_EARLY],
            rejected_below_threshold=self.rejected_below_threshold,
            unattributed_evictions=self._unattributed,
        )

    def class_of(self, record: DecisionRecord) -> str | None:
        """Resolve a record's final miss class (cold vs one-hit-wonder)."""
        if record.miss_class != MISS_COLD:
            return record.miss_class
        if self._occurrences.get(record.obj_id) == 1:
            return MISS_ONE_HIT_WONDER
        return MISS_COLD

    def top_evictors(self, n: int = 5) -> list[tuple[int, int]]:
        """The contents whose requests caused the most early-eviction
        misses, as ``(obj_id, misses_caused)`` pairs."""
        return self.evictor_counts.most_common(n)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def completed_residencies(self) -> int:
        """Residencies an eviction has closed."""
        return self.eviction_ages.count

    @property
    def admission_ratio(self) -> float:
        """Fraction of misses that were admitted."""
        return self.admitted_misses / self.misses if self.misses else 0.0

    @property
    def dead_on_arrival_ratio(self) -> float:
        """Fraction of completed residencies that served zero hits."""
        completed = self.completed_residencies
        return self.dead_on_arrival / completed if completed else 0.0

    def residency(self) -> dict:
        """The residency diagnostics, rounded for reports.  Residencies
        still open (content cached when the trace ended) are not in the
        eviction-age and hits-per-residency figures."""
        return {
            "admission_ratio": round(self.admission_ratio, 4),
            "dead_on_arrival_ratio": round(self.dead_on_arrival_ratio, 4),
            "mean_eviction_age_s": round(self.eviction_ages.mean, 2),
            "p90_eviction_age_s": round(
                self.eviction_age_percentiles.percentile(90), 2
            ),
            "mean_hits_per_residency": round(self.hits_per_residency.mean, 3),
            "completed_residencies": self.completed_residencies,
            "dead_on_arrival": self.dead_on_arrival,
        }

    def summary(self) -> dict:
        """JSON-able overview: counters, taxonomy, residency diagnostics
        and top evictors."""
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 6),
            "records_kept": len(self.records),
            "sample_every": self.sample_every,
            "buffer": self.buffer,
            "taxonomy": self.taxonomy().as_dict(),
            "residency": self.residency(),
            "top_evictors": [
                {"obj_id": obj_id, "misses_caused": count}
                for obj_id, count in self.top_evictors()
            ],
        }
