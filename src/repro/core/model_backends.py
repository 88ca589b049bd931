"""Inference backends for LHR's admission model.

LHR scores every request with its gradient-boosted model; *how* those
scores are computed is an implementation detail with a large
performance range (a scalar tree walk per request vs a vectorized
level-order traversal over a whole block).  LHR scores with
:class:`BatchedBackend`; :class:`ScalarBackend` is the reference it is
tested against, installed on one instance (``policy._backend =
ScalarBackend()``) to replay the same trace both ways.

Every backend must be *bit-exact* with the scalar reference:
``score_block(model, rows)[i]`` must equal ``score_one(model, rows[i])``
to float equality.  The equivalence suite enforces this, down to full
LHR replays.
"""

from __future__ import annotations

import numpy as np


class ModelBackend:
    """Interface: score feature rows with a fitted GBM."""

    def score_one(self, model, row) -> float:
        """Unclamped model output for a single feature row."""
        raise NotImplementedError

    def score_block(self, model, rows: np.ndarray) -> np.ndarray:
        """Unclamped model outputs for a 2-D block of feature rows.

        Must be bit-identical to calling :meth:`score_one` per row.
        """
        raise NotImplementedError


class ScalarBackend(ModelBackend):
    """Reference backend: the pure-Python per-row tree walk.

    ``score_block`` is a Python loop over ``predict_one`` — slow, but
    the definition of correct.  Tests pin every other backend to it.
    """

    def score_one(self, model, row) -> float:
        return model.predict_one(row)

    def score_block(self, model, rows: np.ndarray) -> np.ndarray:
        predict_one = model.predict_one
        out = np.empty(rows.shape[0], dtype=np.float64)
        for i in range(rows.shape[0]):
            out[i] = predict_one(rows[i])
        return out


class BatchedBackend(ModelBackend):
    """Vectorized backend: NumPy level-order traversal per block.

    Single rows still go through the scalar walk (it beats NumPy
    dispatch overhead for one sample); blocks use ``predict_batch``,
    which shares the scalar path's float-op sequence exactly.
    """

    def score_one(self, model, row) -> float:
        return model.predict_one(row)

    def score_block(self, model, rows: np.ndarray) -> np.ndarray:
        return model.predict_batch(rows)
