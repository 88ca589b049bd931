"""LRB — Learning Relaxed Bélády (Song, Berger, Li, Lloyd, NSDI '20).

LRB relaxes Bélády's rule: instead of evicting the object with the single
farthest next request, evicting *any* object whose next request lies
beyond a "Bélády boundary" is good enough.  That relaxation makes the
oracle learnable:

* For every request inside a sliding *memory window*, LRB later learns
  the true time-to-next-request (or "beyond boundary" if none arrives
  within the window) and uses it as a regression label.
* A GBM predicts log(time-to-next-request) from per-object features:
  recent inter-request deltas, exponentially decayed counters (EDCs),
  object size and request count.
* On eviction, LRB samples ``num_candidates`` cached objects, predicts
  their next-request times and evicts the farthest (preferring any
  predicted beyond the boundary).

Admission is admit-all; LRB is an eviction policy.  This mirrors the
open-source LRB simulator's design, with the same GBM family implemented
in :mod:`repro.core.gbm`.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.core.gbm import GradientBoostingRegressor
from repro.policies.base import CachePolicy
from repro.traces.request import Request
from repro.util.indexed_set import IndexedSet

#: Number of past inter-request deltas used as features.
_NUM_DELTAS = 8
#: Number of exponentially decayed counters and their half-life bases.
_NUM_EDCS = 4


class _ObjectState:
    """Per-object feature state tracked by LRB."""

    __slots__ = ("deltas", "last_time", "count", "size", "edcs")

    def __init__(self, size: int):
        self.deltas: deque[float] = deque(maxlen=_NUM_DELTAS)
        self.last_time = -1.0
        self.count = 0
        self.size = size
        self.edcs = [0.0] * _NUM_EDCS


class LrbCache(CachePolicy):
    """Relaxed-Bélády eviction with a GBM next-request-time predictor."""

    name = "lrb"

    def __init__(
        self,
        capacity: int,
        memory_window: float | None = None,
        num_candidates: int = 64,
        training_batch: int = 8_192,
        max_training_data: int = 32_768,
        seed: int = 0,
        gbm_params: dict | None = None,
    ):
        super().__init__(capacity)
        if num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        #: Bélády boundary in seconds; ``None`` = auto (set from trace pace).
        self.memory_window = memory_window
        self._num_candidates = num_candidates
        self._training_batch = training_batch
        self._max_training_data = max_training_data
        self._rng = np.random.default_rng(seed)
        self._gbm_params = gbm_params or {
            "n_estimators": 16,
            "max_depth": 4,
            "learning_rate": 0.3,
            "subsample": 0.8,
            "seed": seed,
        }
        self._model: GradientBoostingRegressor | None = None
        self._states: dict[int, _ObjectState] = {}
        self._cached = IndexedSet()
        # Pending samples: feature row frozen at request time, waiting for
        # the next request (or window expiry) to supply the label.
        self._pending: dict[int, tuple[float, np.ndarray]] = {}
        self._train_features: list[np.ndarray] = []
        self._train_labels: list[float] = []
        self._samples_since_fit = 0
        self._first_time: float | None = None
        self._trainings = 0

    # ------------------------------------------------------------------
    # Feature handling
    # ------------------------------------------------------------------

    def _features(self, state: _ObjectState, now: float) -> np.ndarray:
        row = np.empty(_NUM_DELTAS + _NUM_EDCS + 3, dtype=np.float64)
        age = now - state.last_time if state.last_time >= 0 else self._window(now)
        deltas = list(state.deltas)
        for i in range(_NUM_DELTAS):
            row[i] = deltas[-1 - i] if i < len(deltas) else self._window(now)
        row[_NUM_DELTAS : _NUM_DELTAS + _NUM_EDCS] = state.edcs
        row[-3] = math.log1p(state.size)
        row[-2] = state.count
        row[-1] = age
        return row

    def _window(self, now: float) -> float:
        if self.memory_window is not None:
            return self.memory_window
        if self._first_time is None or now <= self._first_time:
            return 1.0
        # Auto boundary: a quarter of the elapsed trace so far, clamped.
        return max((now - self._first_time) * 0.25, 1.0)

    def _touch(self, req: Request) -> None:
        state = self._states.get(req.obj_id)
        if state is None:
            state = _ObjectState(req.size)
            self._states[req.obj_id] = state
        if state.last_time >= 0:
            delta = req.time - state.last_time
            state.deltas.append(delta)
            for i in range(_NUM_EDCS):
                half_life = 10.0 ** (i + 1)
                decay = 2.0 ** (-delta / half_life)
                state.edcs[i] = 1.0 + state.edcs[i] * decay
        else:
            for i in range(_NUM_EDCS):
                state.edcs[i] = 1.0
        state.count += 1
        state.last_time = req.time

    # ------------------------------------------------------------------
    # Training data collection
    # ------------------------------------------------------------------

    def _label_pending(self, req: Request) -> None:
        pending = self._pending.pop(req.obj_id, None)
        if pending is not None:
            issued_at, features = pending
            self._add_sample(features, req.time - issued_at)

    def _expire_pending(self, now: float) -> None:
        window = self._window(now)
        expired = [
            oid
            for oid, (issued_at, _) in self._pending.items()
            if now - issued_at > window
        ]
        for oid in expired:
            issued_at, features = self._pending.pop(oid)
            # Label: beyond the Bélády boundary (2x window as in LRB).
            self._add_sample(features, 2.0 * window)

    def _add_sample(self, features: np.ndarray, time_to_next: float) -> None:
        self._train_features.append(features)
        self._train_labels.append(math.log1p(max(time_to_next, 0.0)))
        self._samples_since_fit += 1
        if len(self._train_features) > self._max_training_data:
            drop = len(self._train_features) - self._max_training_data
            del self._train_features[:drop]
            del self._train_labels[:drop]
        if self._samples_since_fit >= self._training_batch:
            self._fit()

    def _fit(self) -> None:
        if len(self._train_features) < 256:
            return
        features = np.vstack(self._train_features)
        labels = np.asarray(self._train_labels)
        model = GradientBoostingRegressor(**self._gbm_params)
        self._model = model.fit(features, labels)
        self._samples_since_fit = 0
        self._trainings += 1

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------

    def _on_access(self, req: Request) -> None:
        if self._first_time is None:
            self._first_time = req.time
        self._label_pending(req)
        self._touch(req)
        self._pending[req.obj_id] = (req.time, self._features(self._states[req.obj_id], req.time))
        if (req.index >= 0 and req.index % 1024 == 0) or len(self._pending) > 4 * max(
            len(self._cached), 1024
        ):
            self._expire_pending(req.time)

    def _on_admit(self, req: Request) -> None:
        self._cached.add(req.obj_id)

    def _on_evict(self, obj_id: int) -> None:
        self._cached.discard(obj_id)

    def _select_victim(self, incoming: Request) -> int:
        candidates = self._cached.sample(self._num_candidates, self._rng)
        if self._model is None or len(candidates) == 1:
            # Before the first model: farthest last-access (LRU-like).
            return min(
                candidates, key=lambda oid: self._states[oid].last_time
            )
        rows = np.vstack(
            [self._features(self._states[oid], incoming.time) for oid in candidates]
        )
        predictions = self._model.predict(rows)
        return candidates[int(np.argmax(predictions))]

    @property
    def trainings(self) -> int:
        """Number of model (re)fits so far."""
        return self._trainings

    def metadata_bytes(self) -> int:
        per_state = 8 * (_NUM_DELTAS + _NUM_EDCS + 3)
        total = per_state * len(self._states)
        total += 8 * (_NUM_DELTAS + _NUM_EDCS + 3 + 1) * len(self._train_features)
        total += (16 + 8 * (_NUM_DELTAS + _NUM_EDCS + 3)) * len(self._pending)
        if self._model is not None:
            total += self._model.metadata_bytes()
        return super().metadata_bytes() + total
