"""LHR — Learning from HRO (Sections 4 and 5; Algorithm 1).

LHR is a cache policy that learns *from optimal caching*: a gradient-
boosted model is trained to imitate HRO's per-request hit/miss verdicts,
and its output — the admission probability ``p_i`` — drives both
admission and eviction:

* **Admission**: admit on a miss iff ``p_i >= delta``, where ``delta``
  is auto-tuned per window by :class:`~repro.core.threshold.ThresholdEstimator`.
* **Hit bookkeeping** (the four cases of Section 4.1): on a hit the
  stored probability is refreshed; if ``p_i < delta`` the content is
  additionally marked an *eviction candidate*.
* **Eviction**: evict the candidate with the smallest eviction value
  ``q_i = p_i / (s_i * IRT_1)`` (Section 5.2.5), falling back to a
  uniform sample of the cache when no candidates are marked.
* **Efficient training**: the model is retrained only when the Zipf-alpha
  drift detector flags a significant popularity change between windows
  (Section 5.2.2), never more than once per sliding window.

Ablation variants from Section 7.4 are provided: ``DLhrCache`` (fixed
``delta = 0.5``) and ``NLhrCache`` (fixed threshold *and* retrain every
window).
"""

from __future__ import annotations

import time
from math import isfinite

import numpy as np

from repro.core.detection import DriftDetector
from repro.core.features import FeatureStore, feature_dim
from repro.core.gbm import GradientBoostingRegressor
from repro.core.hro import HroBound, HroWindow, window_labels_for_ids
from repro.core.model_backends import BatchedBackend
from repro.core.threshold import ThresholdEstimator, WindowSample
from repro.obs import Observation
from repro.obs.learner import CAL_BINS, CalibrationStats, realized_reuse
from repro.policies.base import CachePolicy
from repro.traces.request import Request
from repro.util.indexed_set import IndexedSet

#: Eviction-rule variants: the paper's rule and the "straightforward"
#: smallest-p rule it improves upon (Section 5.2.5).
EVICTION_RULES = ("lhr", "p-only", "p-recency")

class LhrCache(CachePolicy):
    """The LHR cache (Algorithm 1).

    Parameters
    ----------
    capacity:
        Cache size in bytes.
    window_multiple:
        Sliding-window size as a multiple of the cache size in unique
        bytes (paper default 4x; Figure 5 sweeps 1x-8x).
    num_irts:
        Inter-request-time features used by the model (paper default 20;
        Figure 6 sweeps 10-30).
    epsilon:
        Zipf-alpha drift threshold for the detection mechanism.
    beta:
        Minimum hit-ratio improvement required to adopt a new admission
        threshold (paper default 0.2%).
    auto_threshold:
        Auto-tune ``delta`` (False gives the D-LHR ablation).
    use_detection:
        Gate retraining on drift detection (False + fixed threshold
        gives the N-LHR ablation).
    eviction_rule:
        ``"lhr"`` for ``p / (s * IRT_1)``; ``"p-only"`` for smallest-p.
    num_candidates:
        Eviction candidates sampled per eviction.
    sample_fraction:
        Fraction of window requests replayed by the threshold estimator.
    threshold_objective:
        ``"object"`` tunes delta for object hit ratio (the paper);
        ``"byte"`` tunes it for byte hit ratio (WAN traffic) instead.
    gbm_params:
        Overrides for the :class:`GradientBoostingRegressor`.
    """

    name = "lhr"

    def __init__(
        self,
        capacity: int,
        window_multiple: float = 4.0,
        min_window_requests: int = 512,
        num_irts: int = 20,
        epsilon: float = 0.005,
        beta: float = 0.002,
        initial_delta: float = 0.5,
        auto_threshold: bool = True,
        use_detection: bool = True,
        eviction_rule: str = "lhr",
        num_candidates: int = 64,
        sample_fraction: float = 0.5,
        threshold_objective: str = "object",
        gbm_params: dict | None = None,
        seed: int = 0,
    ):
        super().__init__(capacity)
        if eviction_rule not in EVICTION_RULES:
            raise ValueError(f"eviction_rule must be one of {EVICTION_RULES}")
        if num_irts < 1:
            raise ValueError("num_irts must be >= 1")
        if num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        self._backend = BatchedBackend()
        self.num_irts = num_irts
        self.auto_threshold = auto_threshold
        self.use_detection = use_detection
        self.eviction_rule = eviction_rule
        self._num_candidates = num_candidates
        self._rng = np.random.default_rng(seed)
        self._gbm_params = gbm_params or {
            "n_estimators": 16,
            "max_depth": 4,
            "learning_rate": 0.3,
            "subsample": 0.8,
            "seed": seed,
        }

        self.features = FeatureStore(max_irts=max(num_irts, 32))
        #: HRO's window accountant: LHR feeds it through ``process_scalar``
        #: only, so it labels windows (each closed window's top set) and
        #: never classifies — its hit counters stay 0.  The bound itself is
        #: :func:`~repro.core.hro.hro_bound`.  ``hazard_rank`` ranks on
        #: demand for decision traces.
        self.hro = HroBound(
            capacity, window_multiple, min_window_requests=min_window_requests
        )
        self.hro.on_window = self._window_closed
        self.detector = DriftDetector(epsilon=epsilon)
        self.estimator = ThresholdEstimator(
            initial_delta=initial_delta,
            beta=beta,
            sample_fraction=sample_fraction,
            objective=threshold_objective,
            seed=seed,
        )
        self._model: GradientBoostingRegressor | None = None

        # Cache-side learned state (Section 4.1): the eviction-candidate
        # set, and the cached contents, one slot each in columns of the
        # stored probability (the vector L), size and last access.  Sizes
        # below 2**53 are exact in float64.  A slot whose feature record
        # ``FeatureStore.prune`` dropped holds a NaN last access until its
        # next hit recreates the record.
        self._eviction_candidates: IndexedSet = IndexedSet()
        self._cached = IndexedSet(columns=("p", "size", "last"))

        # Per-window buffers for training and threshold estimation.
        # Content ids (not Request objects) are enough for labelling, so
        # the columnar path never has to materialize requests.  The open
        # window's feature rows fill the first ``_window_len`` rows of one
        # matrix, which doubles when full and is reused by the next window.
        self._window_matrix = np.empty((64, feature_dim(num_irts)))
        self._window_len = 0
        self._window_ids: list[int] = []
        self._window_samples: list[WindowSample] = []
        self._last_access_time = 0.0

        self._current_p = 1.0
        #: The feature row and raw model score that ``replay_span``
        #: computed for the request it is replaying; None outside a span.
        self._scored: tuple[np.ndarray, float] | None = None
        self.trainings = 0
        self.training_seconds = 0.0
        self.windows_processed = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_observation(self, obs: Observation) -> None:
        """Propagate the handle into the window pipeline components so
        drift/threshold/ranking activity reports through one sink."""
        super().attach_observation(obs)
        self.detector.obs = obs
        self.estimator.obs = obs
        self.hro.obs = obs

    def decision_inputs(self, req: Request):
        return (
            self._current_p,
            self.delta,
            self.hro.hazard_rank(req.obj_id),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def delta(self) -> float:
        """The current admission threshold."""
        return self.estimator.delta

    @property
    def model_ready(self) -> bool:
        return self._model is not None

    def admission_probability(self, obj_id: int) -> float | None:
        """The stored probability of a cached content (the vector L)."""
        slot = self._cached.slot(obj_id)
        return None if slot is None else float(self._cached.columns["p"][slot])

    # ------------------------------------------------------------------
    # Request path (the four cases of Section 4.1)
    # ------------------------------------------------------------------

    def _on_access(self, req: Request) -> None:
        obj_id = req.obj_id
        size = req.size
        now = req.time
        scored = self._scored
        if scored is not None:
            row, p = scored
        else:
            # Outside a span: gather and score this request alone.
            row = self.features.vector(obj_id, now, self.num_irts)
            # Bootstrap (first window): behave as admit-all with p = 1.
            model = self._model
            p = 1.0 if model is None else self._backend.score_one(model, row)
        if not isfinite(p):
            # Fail closed: a NaN would pass the clip into L.
            raise ValueError(
                f"{self.name}: request {req.index}: model score {p} is not finite"
            )
        p = min(max(p, 0.0), 1.0)
        self._last_access_time = now
        self._current_p = p
        self.features.observe_scalar(obj_id, size, now)
        n = self._window_len
        matrix = self._window_matrix
        if n == matrix.shape[0]:
            matrix = self._window_matrix = np.concatenate(
                [matrix, np.empty_like(matrix)]
            )
        matrix[n] = row
        self._window_len = n + 1
        self._window_ids.append(obj_id)
        self._window_samples.append(
            WindowSample(obj_id=obj_id, size=size, time=now, probability=p)
        )
        self.hro.process_scalar(obj_id, size, now)

    def _on_hit(self, req: Request) -> None:
        p = self._current_p
        cached = self._cached
        slot = cached.slot(req.obj_id)
        columns = cached.columns
        columns["p"][slot] = p
        columns["last"][slot] = req.time
        if p < self.delta:
            # Case (ii): refresh L and mark as an eviction candidate.
            self._eviction_candidates.add(req.obj_id)
        else:
            # Case (i): refresh L only.
            self._eviction_candidates.discard(req.obj_id)

    def _should_admit(self, req: Request) -> bool:
        # Cases (iii)/(iv): admit iff p >= delta.
        return self._current_p >= self.delta

    def _on_admit(self, req: Request) -> None:
        slot = self._cached.add(req.obj_id)
        columns = self._cached.columns
        columns["p"][slot] = self._current_p
        columns["size"][slot] = req.size
        columns["last"][slot] = req.time

    def _on_evict(self, obj_id: int) -> None:
        self._eviction_candidates.discard(obj_id)
        self._cached.remove(obj_id)

    # ------------------------------------------------------------------
    # Eviction (Section 5.2.5)
    # ------------------------------------------------------------------

    def _select_victim(self, incoming: Request) -> int:
        """The sampled cached content with the smallest eviction value.

        Samples ``num_candidates`` contents from the eviction-candidate
        set when any are marked, else from every cached slot (all of
        them, in slot order, when the cache holds no more).  The sampled
        slots' columns are gathered and scored in one vector expression:
        ``q = p / (s * IRT_1)`` (``"lhr"``), ``p / IRT_1`` (``"p-recency"``,
        leaving size to the learned p) or ``p`` (``"p-only"``), where
        ``IRT_1`` is the time since the last access, floored at 1e-9, and
        1e9 when the content's feature record was pruned.  ``argmin``
        evicts the first smallest ``q``.
        """
        count = self._num_candidates
        cached = self._cached
        if len(self._eviction_candidates):
            pool = self._eviction_candidates.sample(count, self._rng)
            idx = np.array([cached.slot(oid) for oid in pool])
        else:
            idx = cached.sample_slots(count, self._rng)
        columns = cached.columns
        q = columns["p"][idx]
        if self.eviction_rule != "p-only":
            irt1 = np.maximum(incoming.time - columns["last"][idx], 1e-9)
            irt1[np.isnan(irt1)] = 1e9
            if self.eviction_rule == "lhr":
                irt1 *= columns["size"][idx]
            q = q / irt1
        return cached.key(int(idx[q.argmin()]))

    # ------------------------------------------------------------------
    # Columnar fast path (batched inference kernel)
    # ------------------------------------------------------------------

    def replay_span(self, obj_ids, sizes, times, begin: int, end: int) -> None:
        """Replay a span with block-scored admission probabilities.

        The span's feature rows are assembled in one
        ``FeatureStore.feature_matrix`` gather and scored in one model
        backend call.  Each request then runs through ``request``, the
        base control flow with this class's hooks, and ``_on_access``
        takes the row and score computed for it instead of scoring alone,
        then checks and clips the score as it would its own.  So only a
        score a request consumes can fail the check, never one in a
        span tail that a window close discards.
        ``request`` is whatever the instance carries, so subclass hooks
        and an attached decision tracer see every request.  When HRO
        closes a window mid-span the model, threshold and feature store
        may all change, so the walk stops and the span tail is
        re-gathered and re-scored under the new state — which is
        precisely what per-request scoring would have seen.  The span
        becomes lists once; the gathers index them from 0, and each
        ``Request`` keeps its global index.
        """
        features = self.features
        score_block = self._backend.score_block
        request = self.request
        ids = obj_ids[begin:end].tolist()
        szs = sizes[begin:end].tolist()
        tms = times[begin:end].tolist()
        n = end - begin
        i = 0
        try:
            while i < n:
                block = features.feature_matrix(ids, szs, tms, i, n, self.num_irts)
                model = self._model
                probs = (
                    score_block(model, block).tolist() if model is not None else None
                )
                windows_before = self.windows_processed
                for k in range(n - i):
                    self._scored = (block[k], 1.0 if probs is None else probs[k])
                    j = i + k
                    request(Request(tms[j], ids[j], szs[j], begin + j))
                    if self.windows_processed != windows_before:
                        # Window closed: model/delta/features may have
                        # changed — re-score the span tail under new state.
                        break
                i += k + 1
        finally:
            self._scored = None

    # ------------------------------------------------------------------
    # Window pipeline: detection -> estimation -> training
    # ------------------------------------------------------------------

    def _window_closed(self, window: HroWindow) -> None:
        # Span-wrapped dispatch: the window-close pipeline (drift check,
        # threshold estimation, GBM refit) is the retraining-cadence cost
        # the paper trades against hit ratio, so it gets a timeline span
        # whenever one is being recorded.
        spans = self.obs.spans
        if spans.enabled:
            with spans.span(
                "lhr.window_close", cat="lhr", window=self.windows_processed
            ):
                self._close_window(window)
        else:
            self._close_window(window)

    def _close_window(self, window: HroWindow) -> None:
        self.windows_processed += 1
        had_model = self._model is not None
        trainings_before = self.trainings
        should_train = (
            self.detector.observe_window(window.counts)
            if self.use_detection
            else True
        )
        if self._model is None:
            should_train = True
        if should_train:
            if self.auto_threshold and self._model is not None:
                self.estimator.update(self._window_samples, self.capacity)
            self._train(window)
        if self.obs.learner.enabled:
            # Finalize the learner-telemetry row for this window while the
            # per-window sample buffer is still alive.  Runs once per
            # window close, after the drift/threshold/refit fragments have
            # been recorded, so it never touches the per-request path.
            self._record_learner_window(had_model, trainings_before)
        # Keep feature history bounded to a few windows of idle time.
        if self._window_ids:
            now = self._last_access_time
            features = self.features
            if features.prune(now, horizon=max(window.duration * 4.0, 1e-6)):
                # Cached contents whose record was pruned lose their last
                # access; the pick scores them with IRT_1 = 1e9.
                stale = [oid not in features for oid in self._cached]
                self._cached.columns["last"][: len(stale)][stale] = np.nan
        self._window_len = 0
        self._window_ids.clear()
        self._window_samples.clear()

    def _record_learner_window(self, had_model: bool, trainings_before: int) -> None:
        samples = self._window_samples
        probabilities = np.array(
            [sample.probability for sample in samples], dtype=np.float64
        )
        calibration = CalibrationStats.from_arrays(
            probabilities,
            realized_reuse([sample.obj_id for sample in samples]),
        )
        score_hist, _ = np.histogram(
            probabilities, bins=CAL_BINS, range=(0.0, 1.0)
        )
        retrained = self.trainings > trainings_before
        if not retrained:
            cause = "none"
        elif not had_model:
            cause = "first_window"
        elif not self.use_detection:
            cause = "every_window"
        elif (
            self.detector.records
            and self.detector.records[-1].fit.num_contents == 0
        ):
            cause = "degenerate"
        else:
            cause = "drift"
        delta = self.delta
        self.obs.learner.record_window(
            window=self.windows_processed - 1,
            delta=delta,
            samples=len(samples),
            admit_rate=(
                float((probabilities >= delta).mean())
                if samples
                else float("nan")
            ),
            mean_p=float(probabilities.mean()) if samples else float("nan"),
            retrained=retrained,
            cause=cause,
            calibration=calibration,
            score_hist=score_hist.astype(np.float64),
        )

    def _train(self, window: HroWindow) -> None:
        if not self._window_len:
            return
        labels = window_labels_for_ids(window, self._window_ids)
        rows = self._window_matrix[: self._window_len]
        start = time.perf_counter()
        with self.obs.spans.span(
            "lhr.gbm_refit", cat="lhr", rows=int(rows.shape[0])
        ):
            model = GradientBoostingRegressor(**self._gbm_params)
            self._model = model.fit(rows, labels)
        elapsed = time.perf_counter() - start
        self.training_seconds += elapsed
        self.trainings += 1
        if self.obs.learner.enabled:
            # Model fingerprint for this refit (learner-telemetry
            # fragment, folded into the row at window close).
            fingerprint = self._model.fingerprint(feature_dim(self.num_irts))
            importances = fingerprint["importances"]
            positive = importances[importances > 0]
            self.obs.learner.record_refit(
                train_rows=float(rows.shape[0]),
                trees=float(fingerprint["trees"]),
                max_tree_depth=float(fingerprint["max_tree_depth"]),
                tree_nodes=float(fingerprint["tree_nodes"]),
                train_seconds=elapsed,
                importance_top_feature=float(int(np.argmax(importances)))
                if importances.size
                else float("nan"),
                importance_top_share=float(importances.max())
                if importances.size
                else float("nan"),
                importance_entropy=float(-np.sum(positive * np.log(positive)))
                if positive.size
                else 0.0,
            )
        if self.obs.enabled:
            self.obs.registry.histogram(
                "lhr_train_seconds", help="wall-clock seconds per GBM fit"
            ).observe(elapsed)
            self.obs.registry.counter(
                "lhr_trainings_total", help="GBM (re)trainings performed"
            ).inc()
            self.obs.emit(
                "lhr.retrain",
                window=window.index,
                rows=int(rows.shape[0]),
                trees=self._model.num_trees,
                trainings=self.trainings,
                training_seconds=round(elapsed, 6),
            )

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------

    def metadata_bytes(self) -> int:
        total = self.features.metadata_bytes()
        total += 16 * len(self._cached)
        total += 8 * feature_dim(self.num_irts) * self._window_len
        total += 40 * len(self._window_samples)
        if self._model is not None:
            total += self._model.metadata_bytes()
        return super().metadata_bytes() + total


class DLhrCache(LhrCache):
    """D-LHR (Section 7.4): LHR with a fixed threshold ``delta = 0.5``."""

    name = "d-lhr"

    def __init__(self, capacity: int, **kwargs):
        kwargs["auto_threshold"] = False
        super().__init__(capacity, **kwargs)


class NLhrCache(LhrCache):
    """N-LHR (Section 7.4): D-LHR without the detection mechanism —
    fixed threshold and retraining on every sliding window."""

    name = "n-lhr"

    def __init__(self, capacity: int, **kwargs):
        kwargs["auto_threshold"] = False
        kwargs["use_detection"] = False
        super().__init__(capacity, **kwargs)
