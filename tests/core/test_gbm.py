"""Gradient-boosting model: learning ability, API contract, scalar path,
and training bit-identical to the reference fit it replaced."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lhr as lhr_module
from repro.core.gbm import GradientBoostingRegressor, _sigmoid
from repro.core.serialization import gbm_from_dict, gbm_to_dict
from repro.sim import build_policy, simulate
from repro.traces import PRODUCTION_SPECS, PackedTrace, generate_production_trace


@pytest.fixture(scope="module")
def xor_data():
    rng = np.random.default_rng(0)
    X = rng.random((4000, 4))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
    return X, y


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"n_bins": 1},
            {"n_bins": 300},
            {"subsample": 0.0},
            {"min_samples_leaf": 0},
            {"max_depth": -1},
            {"l2_regularization": -1.0},
            {"l2_regularization": math.nan},
        ],
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(**kwargs)

    def test_predict_before_fit_raises(self):
        model = GradientBoostingRegressor()
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((1, 3)))
        with pytest.raises(RuntimeError):
            model.predict_one(np.zeros(3))


class TestFitValidation:
    def test_rejects_1d_features(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros(5), np.zeros(5))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("loss", GradientBoostingRegressor.LOSSES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, loss, bad):
        # One bad target used to turn every prediction into NaN, silently.
        y = np.zeros(200)
        y[::2] = 1.0
        y[37] = bad
        model = GradientBoostingRegressor(loss=loss)
        with pytest.raises(ValueError, match="row 37"):
            model.fit(np.random.default_rng(0).random((200, 3)), y)

    def test_rejects_non_finite_validation_target(self):
        # A NaN validation loss used to stop early after one tree, silently.
        rng = np.random.default_rng(0)
        X, y = rng.random((200, 3)), rng.random(200)
        y_val = rng.random(50)
        y_val[3] = math.nan
        model = GradientBoostingRegressor(early_stopping_rounds=2)
        with pytest.raises(ValueError, match="validation targets.*row 3"):
            model.fit(X, y, validation=(rng.random((50, 3)), y_val))

    def test_accepts_non_finite_features(self):
        # NaN and +-inf features route consistently: fit and predict agree.
        X = np.random.default_rng(1).random((200, 3))
        X[::7, 0] = np.nan
        X[::5, 1] = np.inf
        X[::11, 2] = -np.inf
        y = (np.nan_to_num(X[:, 0], nan=0.7) > 0.5).astype(float)
        # np.quantile interpolates inf - inf between infinite values.
        with np.errstate(invalid="ignore"):
            model = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        assert np.isfinite(model.predict(X)).all()


class TestLearning:
    def test_constant_target(self):
        X = np.random.default_rng(1).random((100, 3))
        model = GradientBoostingRegressor(n_estimators=5).fit(X, np.full(100, 3.5))
        assert np.allclose(model.predict(X), 3.5, atol=1e-9)

    def test_learns_step_function(self):
        rng = np.random.default_rng(2)
        X = rng.random((2000, 2))
        y = (X[:, 0] > 0.3).astype(float)
        model = GradientBoostingRegressor(n_estimators=20, max_depth=3).fit(X, y)
        predictions = model.predict(X)
        assert ((predictions > 0.5) == (y > 0.5)).mean() > 0.98

    def test_learns_xor(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=40, max_depth=4).fit(X, y)
        predictions = model.predict(X)
        assert ((predictions > 0.5) == (y > 0.5)).mean() > 0.95

    def test_more_trees_reduce_training_error(self, xor_data):
        X, y = xor_data
        def mse(trees):
            model = GradientBoostingRegressor(n_estimators=trees, max_depth=4)
            return float(((model.fit(X, y).predict(X) - y) ** 2).mean())

        assert mse(30) < mse(3)

    def test_deterministic_given_seed(self, xor_data):
        X, y = xor_data
        a = GradientBoostingRegressor(n_estimators=8, subsample=0.7, seed=5).fit(X, y)
        b = GradientBoostingRegressor(n_estimators=8, subsample=0.7, seed=5).fit(X, y)
        assert np.allclose(a.predict(X[:50]), b.predict(X[:50]))

    def test_min_samples_leaf_respected(self):
        # With min_samples_leaf = n no split is possible: model = mean.
        rng = np.random.default_rng(3)
        X = rng.random((50, 2))
        y = rng.random(50)
        model = GradientBoostingRegressor(
            n_estimators=5, min_samples_leaf=50
        ).fit(X, y)
        assert np.allclose(model.predict(X), y.mean(), atol=1e-9)

    def test_single_feature(self):
        rng = np.random.default_rng(4)
        X = rng.random((500, 1))
        y = 2.0 * (X[:, 0] > 0.6)
        model = GradientBoostingRegressor(n_estimators=10).fit(X, y)
        assert ((model.predict(X) > 1.0) == (y > 1.0)).mean() > 0.98

    def test_constant_feature_ignored(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.full(300, 7.0), rng.random(300)])
        y = (X[:, 1] > 0.5).astype(float)
        model = GradientBoostingRegressor(n_estimators=10).fit(X, y)
        assert ((model.predict(X) > 0.5) == (y > 0.5)).mean() > 0.97


class TestPredictApi:
    def test_predict_accepts_1d_row(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        assert model.predict(X[0]).shape == (1,)

    def test_predict_one_matches_vectorized(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=12, max_depth=4).fit(X, y)
        vectorized = model.predict(X[:100])
        scalar = np.array([model.predict_one(X[i]) for i in range(100)])
        assert np.allclose(vectorized, scalar, atol=1e-12)

    def test_predict_one_accepts_plain_list(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=4).fit(X, y)
        assert model.predict_one(list(X[0])) == pytest.approx(
            float(model.predict(X[:1])[0])
        )

    def test_rejects_too_few_columns(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=4).fit(X, y)
        for predict in (model.predict, model.predict_batch):
            with pytest.raises(ValueError, match="columns"):
                predict(X[:, :1])

    def test_num_trees_and_metadata(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=7).fit(X, y)
        assert model.num_trees == 7
        assert model.metadata_bytes() > 0

    def test_refit_replaces_model(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=5)
        model.fit(X, y)
        first = model.predict(X[:10]).copy()
        model.fit(X, 1.0 - y)
        second = model.predict(X[:10])
        assert not np.allclose(first, second)

    def test_refit_invalidates_derived_caches(self, xor_data):
        """Regression: ``predict_one``'s flattened trees and the
        ``metadata_bytes`` total are caches over ``_trees``; a refit must
        drop both or the scalar path keeps scoring with the old model."""
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=5)
        model.fit(X, y)
        model.predict_one(X[0])  # populate the scalar-tree cache
        first_meta = model.metadata_bytes()
        assert model._scalar_trees is not None
        assert model._metadata_bytes == first_meta

        model.fit(X, 1.0 - y)
        assert model._scalar_trees is None
        assert model._metadata_bytes is None
        # The rebuilt caches reflect the new ensemble, not the old one.
        scalar = np.array([model.predict_one(X[i]) for i in range(50)])
        assert np.allclose(model.predict(X[:50]), scalar, atol=1e-12)
        assert model.metadata_bytes() > 0

    def test_metadata_bytes_cached_and_stable(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=6).fit(X, y)
        assert model.metadata_bytes() == model.metadata_bytes()
        smaller = GradientBoostingRegressor(n_estimators=2).fit(X, y)
        assert smaller.metadata_bytes() < model.metadata_bytes()


class TestPredictBatch:
    """``predict_batch`` is the scalar path run level-order over a block:
    it must equal ``predict_one`` to the last bit (the batched LHR
    backend's exactness claim rests on this)."""

    def test_matches_predict_one_exactly(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=12, max_depth=4).fit(X, y)
        batch = model.predict_batch(X[:100])
        scalar = [model.predict_one(X[i]) for i in range(100)]
        assert batch.tolist() == scalar  # float equality, not allclose

    def test_matches_predict_one_logistic(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(
            n_estimators=10, max_depth=3, loss="logistic"
        ).fit(X, (y > 0.5).astype(float))
        batch = model.predict_batch(X[:100])
        scalar = [model.predict_one(X[i]) for i in range(100)]
        assert batch.tolist() == scalar

    def test_degenerate_single_node_trees(self):
        # A constant target yields zero residuals: every tree is a bare
        # root (a self-looping leaf in the flattened layout).
        X = np.random.default_rng(0).random((50, 3))
        y = np.full(50, 0.25)
        model = GradientBoostingRegressor(n_estimators=4).fit(X, y)
        batch = model.predict_batch(X)
        scalar = [model.predict_one(X[i]) for i in range(50)]
        assert batch.tolist() == scalar

    def test_accepts_plain_lists(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=4).fit(X, y)
        rows = [list(X[i]) for i in range(10)]
        assert model.predict_batch(rows).tolist() == [
            model.predict_one(row) for row in rows
        ]

    def test_empty_block(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=3).fit(X, y)
        assert model.predict_batch(np.empty((0, X.shape[1]))).shape == (0,)

    def test_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict_batch(np.zeros((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2**31 - 1),
        st.sampled_from(["squared", "logistic"]),
        st.integers(min_value=1, max_value=4),
    )
    def test_property_batch_equals_scalar(self, seed, loss, depth):
        rng = np.random.default_rng(seed)
        X = rng.random((120, 4))
        y = rng.random(120)
        if loss == "logistic":
            y = (y > 0.5).astype(float)
        model = GradientBoostingRegressor(
            n_estimators=int(rng.integers(1, 8)),
            max_depth=depth,
            min_samples_leaf=int(rng.integers(1, 30)),
            seed=seed,
            loss=loss,
        ).fit(X, y)
        probe = rng.random((40, 4))
        batch = model.predict_batch(probe)
        scalar = [model.predict_one(probe[i]) for i in range(40)]
        assert batch.tolist() == scalar


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=2**31 - 1))
def test_property_predictions_bounded_by_target_range(seed):
    rng = np.random.default_rng(seed)
    X = rng.random((200, 3))
    y = rng.random(200)  # targets in [0, 1]
    model = GradientBoostingRegressor(n_estimators=6, max_depth=3).fit(X, y)
    predictions = model.predict(X)
    # Squared-loss leaf averages cannot overshoot the target range by much
    # (shrinkage keeps the ensemble inside a slightly padded hull).
    assert predictions.min() > -0.5
    assert predictions.max() < 1.5


class TestLogisticLoss:
    def test_rejects_unknown_loss(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(loss="hinge")

    def test_rejects_non_binary_targets(self):
        X = np.zeros((10, 2))
        y = np.linspace(0, 2, 10)
        with pytest.raises(ValueError, match="0/1"):
            GradientBoostingRegressor(loss="logistic").fit(X, y)

    def test_outputs_probabilities(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(
            n_estimators=20, loss="logistic"
        ).fit(X, y)
        predictions = model.predict(X)
        assert predictions.min() >= 0.0
        assert predictions.max() <= 1.0
        assert ((predictions > 0.5) == (y > 0.5)).mean() > 0.9

    def test_scalar_path_applies_sigmoid(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=8, loss="logistic").fit(X, y)
        vectorized = model.predict(X[:20])
        scalar = np.array([model.predict_one(X[i]) for i in range(20)])
        assert np.allclose(vectorized, scalar, atol=1e-12)


class TestEarlyStopping:
    def test_rejects_negative_rounds(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(early_stopping_rounds=-1)

    def test_stops_before_budget(self):
        rng = np.random.default_rng(7)
        X = rng.random((2000, 3))
        y = (X[:, 0] > 0.5).astype(float)
        model = GradientBoostingRegressor(
            n_estimators=300, early_stopping_rounds=5
        )
        model.fit(X[:1500], y[:1500], validation=(X[1500:], y[1500:]))
        assert model.num_trees < 300

    def test_no_validation_uses_full_budget(self):
        rng = np.random.default_rng(8)
        X = rng.random((300, 2))
        y = rng.random(300)
        model = GradientBoostingRegressor(
            n_estimators=12, early_stopping_rounds=3
        ).fit(X, y)
        assert model.num_trees == 12


class TestFeatureImportances:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().feature_importances()

    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(9)
        X = rng.random((3000, 4))
        y = (X[:, 2] > 0.5).astype(float)
        model = GradientBoostingRegressor(n_estimators=10).fit(X, y)
        importances = model.feature_importances(4)
        assert importances.argmax() == 2
        assert importances.sum() == pytest.approx(1.0)

    def test_explicit_size(self):
        rng = np.random.default_rng(10)
        X = rng.random((200, 6))
        y = X[:, 0]
        model = GradientBoostingRegressor(n_estimators=4).fit(X, y)
        assert model.feature_importances(6).shape == (6,)


# ----------------------------------------------------------------------
# Reference fit: training as it was before the level-batched grower,
# kept verbatim as the differential oracle.
# ----------------------------------------------------------------------


@dataclass
class _ReferenceTree:
    """The old tree: routed by an active-mask walk, depth found by a walk."""

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    threshold: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    left: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    right: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    value: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))

    def predict(self, features: np.ndarray) -> np.ndarray:
        node = np.zeros(features.shape[0], dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            nodes = node[idx]
            go_left = (
                features[idx, self.feature[nodes]] <= self.threshold[nodes]
            )
            node[idx] = np.where(go_left, self.left[nodes], self.right[nodes])
            active = self.feature[node] >= 0
        return self.value[node]

    def as_lists(self) -> tuple[list, list, list, list, list]:
        return (
            self.feature.tolist(),
            self.threshold.tolist(),
            self.left.tolist(),
            self.right.tolist(),
            self.value.tolist(),
        )

    def depth(self) -> int:
        if self.feature.size == 0:
            return 0
        best = 0
        stack = [(0, 0)]
        while stack:
            node, d = stack.pop()
            if self.feature[node] < 0:
                best = max(best, d)
                continue
            stack.append((int(self.left[node]), d + 1))
            stack.append((int(self.right[node]), d + 1))
        return best


class ReferenceGBM(GradientBoostingRegressor):
    """``fit``, ``_bin_features`` and ``_fit_tree`` as they were: uint8
    codes, ``n_bins``-wide histograms, a per-node gain scan and partition,
    and the per-round update through ``_ReferenceTree.predict``."""

    def fit(self, features, targets, validation=None):
        features = np.ascontiguousarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be 2-D (samples x features)")
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets disagree on sample count")
        if features.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if self.loss == "logistic" and not np.isin(targets, (0.0, 1.0)).all():
            raise ValueError("logistic loss needs 0/1 targets")

        codes, bin_edges = self._bin_features(features)
        if self.loss == "logistic":
            mean = min(max(float(targets.mean()), 1e-6), 1.0 - 1e-6)
            self._base_score = float(np.log(mean / (1.0 - mean)))
        else:
            self._base_score = float(targets.mean())
        raw = np.full(targets.shape[0], self._base_score)
        self._trees = []
        num_samples = features.shape[0]

        use_validation = validation is not None and self.early_stopping_rounds > 0
        if use_validation:
            val_features = np.ascontiguousarray(validation[0], dtype=np.float64)
            val_targets = np.asarray(validation[1], dtype=np.float64)
            val_raw = np.full(val_targets.shape[0], self._base_score)
            best_loss = np.inf
            best_round = 0

        for round_index in range(self.n_estimators):
            residuals = self._negative_gradient(targets, raw)
            if self.subsample < 1.0:
                mask = self._rng.random(num_samples) < self.subsample
                if mask.sum() < max(2 * self.min_samples_leaf, 4):
                    mask = np.ones(num_samples, dtype=bool)
            else:
                mask = np.ones(num_samples, dtype=bool)
            tree = self._fit_tree(codes[mask], residuals[mask], bin_edges)
            self._trees.append(tree)
            raw += self.learning_rate * tree.predict(features)
            if use_validation:
                val_raw += self.learning_rate * tree.predict(val_features)
                loss = self._loss_value(val_targets, val_raw)
                if loss < best_loss - 1e-12:
                    best_loss = loss
                    best_round = round_index
                elif round_index - best_round >= self.early_stopping_rounds:
                    del self._trees[best_round + 1 :]
                    break
        self._scalar_trees = None
        self._flat_trees = None
        self._metadata_bytes = None
        self._fitted = True
        return self

    def _bin_features(self, features):
        num_samples, num_features = features.shape
        codes = np.empty((num_samples, num_features), dtype=np.uint8)
        edges = []
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        all_cuts = np.quantile(features, quantiles, axis=0)
        for j in range(num_features):
            cuts = np.unique(all_cuts[:, j])
            codes[:, j] = np.searchsorted(cuts, features[:, j], side="right")
            edges.append(cuts)
        return codes, edges

    def _fit_tree(self, codes, residuals, bin_edges):
        feature, threshold, left, right, value = [], [], [], [], []

        def new_node():
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        n_bins = self.n_bins
        lam = self.l2_regularization
        min_leaf = self.min_samples_leaf
        num_features = codes.shape[1]
        stripe = num_features * n_bins
        feat_offsets = np.arange(num_features, dtype=np.intp) * n_bins
        root = new_node()
        level = [(root, np.arange(codes.shape[0]))]
        depth = 0
        while level:
            splittable = []
            for node, idx in level:
                res = residuals[idx]
                total = res.sum()
                value[node] = total / (res.size + lam)
                if depth >= self.max_depth or idx.size < 2 * min_leaf:
                    continue
                splittable.append((node, idx, res, total))
            if not splittable:
                break
            num_nodes = len(splittable)
            if num_nodes == 1:
                sub = codes[splittable[0][1]]
                flat = (sub + feat_offsets).ravel()
                res_all = splittable[0][2]
            else:
                lengths = [entry[1].size for entry in splittable]
                all_idx = np.concatenate([entry[1] for entry in splittable])
                slot = np.repeat(
                    np.arange(num_nodes, dtype=np.intp) * stripe, lengths
                )
                sub = codes[all_idx]
                flat = (sub + feat_offsets + slot[:, None]).ravel()
                res_all = residuals[all_idx]
            length = stripe * num_nodes
            counts = np.bincount(flat, minlength=length).astype(np.float64)
            sums = np.bincount(
                flat, weights=np.repeat(res_all, num_features), minlength=length
            )
            left_counts = counts.reshape(num_nodes, num_features, n_bins).cumsum(
                axis=2
            )[:, :, :-1]
            left_sums = sums.reshape(num_nodes, num_features, n_bins).cumsum(
                axis=2
            )[:, :, :-1]
            next_level = []
            for s, (node, idx, res, total_sum) in enumerate(splittable):
                total_count = res.size
                parent_score = total_sum * total_sum / (total_count + lam)
                node_left_counts = left_counts[s]
                node_left_sums = left_sums[s]
                right_counts = total_count - node_left_counts
                right_sums = total_sum - node_left_sums
                valid = (node_left_counts >= min_leaf) & (
                    right_counts >= min_leaf
                )
                if not valid.any():
                    continue
                gains = (
                    node_left_sums**2 / (node_left_counts + lam)
                    + right_sums**2 / (right_counts + lam)
                    - parent_score
                )
                gains[~valid] = -np.inf
                flat_best = int(np.argmax(gains))
                feat, split_bin = divmod(flat_best, n_bins - 1)
                gain = float(gains[feat, split_bin])
                if gain <= 1e-12:
                    continue
                go_left = codes[idx, feat] <= split_bin
                left_idx = idx[go_left]
                right_idx = idx[~go_left]
                if left_idx.size < min_leaf or right_idx.size < min_leaf:
                    continue
                cuts = bin_edges[feat]
                feature[node] = feat
                threshold[node] = (
                    float(cuts[split_bin]) if split_bin < cuts.size else np.inf
                )
                left[node] = new_node()
                right[node] = new_node()
                next_level.append((left[node], left_idx))
                next_level.append((right[node], right_idx))
            level = next_level
            depth += 1

        return _ReferenceTree(
            feature=np.asarray(feature, np.int32),
            threshold=np.asarray(threshold, np.float64),
            left=np.asarray(left, np.int32),
            right=np.asarray(right, np.int32),
            value=np.asarray(value, np.float64),
        )


def _bits(array: np.ndarray) -> tuple:
    return array.dtype.str, array.shape, array.tobytes()


def assert_fits_match_reference(X, y, params, rng_state=None, validation=None):
    """Fit the shipped and the reference implementation from the same RNG
    state; require the same bits in every output."""
    models = [GradientBoostingRegressor(**params), ReferenceGBM(**params)]
    for model in models:
        if rng_state is not None:
            model._rng.bit_generator.state = rng_state
        with np.errstate(divide="ignore", invalid="ignore"):
            model.fit(X, y, validation)
    shipped, reference = models
    assert shipped._base_score == reference._base_score
    assert shipped.num_trees == reference.num_trees
    assert shipped._rng.bit_generator.state == reference._rng.bit_generator.state
    for new, old in zip(shipped._trees, reference._trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert _bits(getattr(new, name)) == _bits(getattr(old, name)), name
        assert new.depth == old.depth()
    probe = X if validation is None else np.vstack([X, validation[0]])
    raw = np.full(probe.shape[0], reference._base_score)
    for tree in reference._trees:
        raw += reference.learning_rate * tree.predict(probe)
    expected = _sigmoid(raw) if reference.loss == "logistic" else raw
    assert _bits(shipped.predict(probe)) == _bits(expected)
    scalar = [reference.predict_one(row) for row in probe]
    assert [shipped.predict_one(row) for row in probe] == scalar
    assert shipped.predict_batch(probe).tolist() == scalar
    return shipped


def _tie_heavy_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Columns full of exact ties: small integers, the 1e9 missing-IRT
    sentinel, constants, copies of an earlier column (equal gains across
    features), plain floats, with NaN and +-inf scattered in."""
    columns = []
    for _ in range(cols):
        kind = rng.integers(6)
        if kind == 0:
            column = rng.integers(0, rng.integers(1, 6), rows).astype(float)
        elif kind == 1:
            column = np.where(rng.random(rows) < 0.7, 1e9, rng.integers(0, 50, rows))
        elif kind == 2:
            column = np.full(rows, float(rng.integers(-3, 3)))
        elif kind == 3 and columns:
            column = columns[rng.integers(len(columns))].copy()
        else:
            column = rng.random(rows).round(int(rng.integers(1, 4)))
        columns.append(np.asarray(column, dtype=float))
    X = np.column_stack(columns)
    if rng.random() < 0.5:
        holes = rng.random(X.shape) < 0.05
        X[holes] = rng.choice([np.nan, np.inf, -np.inf], size=int(holes.sum()))
    return X


class TestFitMatchesReference:
    """Training is bit-identical to the reference fit: node arrays and
    breadth-first numbering, base score, tree count, the RNG state after
    ``fit``, and every prediction path."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=150),
        cols=st.integers(min_value=1, max_value=6),
        n_bins=st.integers(min_value=2, max_value=64),
        subsample=st.sampled_from([0.5, 0.8, 1.0]),
        min_samples_leaf=st.integers(min_value=1, max_value=16),
        max_depth=st.integers(min_value=0, max_value=6),
        l2_regularization=st.sampled_from([0.0, 1.0]),
        loss=st.sampled_from(GradientBoostingRegressor.LOSSES),
        early_stopping=st.booleans(),
    )
    def test_property_tie_heavy(
        self, seed, rows, cols, n_bins, subsample, min_samples_leaf, max_depth,
        l2_regularization, loss, early_stopping,
    ):
        rng = np.random.default_rng(seed)
        X = _tie_heavy_matrix(rng, rows + 20, cols)
        if loss == "logistic":
            y = (rng.random(rows + 20) < 0.3).astype(float)
        else:
            y = rng.integers(0, 3, rows + 20) * rng.choice([1.0, 0.37])
        params = dict(
            n_estimators=int(rng.integers(1, 9)),
            learning_rate=float(rng.choice([0.1, 0.3, 1.0])),
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            n_bins=n_bins,
            l2_regularization=l2_regularization,
            subsample=subsample,
            seed=seed,
            loss=loss,
            early_stopping_rounds=2 if early_stopping else 0,
        )
        validation = (X[rows:], y[rows:]) if early_stopping else None
        assert_fits_match_reference(X[:rows], y[:rows], params, validation=validation)

    def test_production_refits(self, monkeypatch):
        # Every refit of one LHR replay of a CDN-C stand-in, each from the
        # RNG state it started from.
        refits = []

        class Recorder(GradientBoostingRegressor):
            def fit(self, features, targets, validation=None):
                params = dict(
                    n_estimators=self.n_estimators,
                    learning_rate=self.learning_rate,
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    n_bins=self.n_bins,
                    l2_regularization=self.l2_regularization,
                    subsample=self.subsample,
                    loss=self.loss,
                )
                state = self._rng.bit_generator.state
                refits.append((np.array(features), np.array(targets), params, state))
                return super().fit(features, targets, validation)

        monkeypatch.setattr(lhr_module, "GradientBoostingRegressor", Recorder)
        spec = PRODUCTION_SPECS["cdn-c"]
        trace = generate_production_trace(spec, scale=0.03, seed=1000)
        policy = build_policy("lhr", spec.scaled_cache_bytes(64, 0.03), seed=0)
        simulate(policy, PackedTrace.from_trace(trace))
        assert len(refits) > 20
        for X, y, params, state in refits:
            model = assert_fits_match_reference(X, y, params, rng_state=state)
            assert model.num_trees == params["n_estimators"]

    def test_reloaded_model_predicts_identically(self, xor_data):
        X, y = xor_data
        model = GradientBoostingRegressor(n_estimators=6, subsample=0.8).fit(X, y)
        clone = gbm_from_dict(gbm_to_dict(model))
        assert [t.depth for t in clone._trees] == [t.depth for t in model._trees]
        assert _bits(clone.predict(X)) == _bits(model.predict(X))
        for tree, twin in zip(model._trees, clone._trees):
            assert _bits(tree.predict(X)) == _bits(twin.predict(X))
