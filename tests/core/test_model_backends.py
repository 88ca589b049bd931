"""Model backends: exactness and the LHR pin.

Every backend's ``score_block`` equals the scalar reference to float
equality, so an LHR replay is bit-identical whichever backend scores
it.  These tests pin both halves — the backends against each other on
raw models, and full LHR replays against each other end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gbm import GradientBoostingRegressor
from repro.core.lhr import LhrCache
from repro.core.model_backends import BatchedBackend, ScalarBackend
from repro.sim import simulate
from repro.traces.packed import PackedTrace
from repro.traces.synthetic import irm_trace


class TestBackendExactness:
    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(3)
        X = rng.random((300, 23))
        y = (rng.random(300) > 0.5).astype(float)
        return GradientBoostingRegressor(
            n_estimators=8, max_depth=4, loss="logistic"
        ).fit(X, y)

    def test_score_block_matches_score_one(self, model):
        rng = np.random.default_rng(4)
        rows = rng.random((64, 23))
        scalar = ScalarBackend()
        batched = BatchedBackend()
        reference = [scalar.score_one(model, rows[i]) for i in range(64)]
        assert scalar.score_block(model, rows).tolist() == reference
        assert batched.score_block(model, rows).tolist() == reference

    def test_score_one_agrees_across_backends(self, model):
        row = np.random.default_rng(5).random(23)
        assert ScalarBackend().score_one(model, row) == BatchedBackend().score_one(
            model, row
        )


class TestLhrBackendPin:
    """Full replays must be bit-identical across backends — counters,
    window series, retrain count and the threshold trajectory."""

    @pytest.fixture(scope="class")
    def pin_trace(self):
        return PackedTrace.from_trace(
            irm_trace(
                1200, 100, alpha=0.9, mean_size=1 << 14, size_sigma=1.2,
                seed=7, name="golden",
            )
        )

    @pytest.fixture(scope="class")
    def pin_capacity(self, pin_trace):
        return max(int(0.15 * int(pin_trace.sizes.sum())), 1)

    def test_lhr_scores_with_batched_backend(self, pin_capacity):
        assert type(LhrCache(pin_capacity)._backend) is BatchedBackend

    def _replay(self, pin_trace, pin_capacity, backend=None):
        policy = LhrCache(pin_capacity, seed=0)
        if backend is not None:
            policy._backend = backend
        result = simulate(policy, pin_trace, window_requests=300)
        return policy, result

    def test_scalar_equals_batched(self, pin_trace, pin_capacity):
        scalar_policy, scalar = self._replay(pin_trace, pin_capacity, ScalarBackend())
        batched_policy, batched = self._replay(pin_trace, pin_capacity)
        assert scalar.counters() == batched.counters()
        assert scalar.window_series() == batched.window_series()
        assert scalar.object_hit_ratio == batched.object_hit_ratio
        assert scalar_policy.windows_processed == batched_policy.windows_processed
        assert (
            scalar_policy.estimator.history == batched_policy.estimator.history
        )
        assert scalar_policy.cached_objects() == batched_policy.cached_objects()
