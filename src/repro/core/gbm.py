"""Gradient-boosted regression trees, from scratch on NumPy.

The paper trains an "XGBoosting Machine (XGBM)" with squared loss to
imitate HRO's admission decisions (Section 5.2.4); LRB uses the same
model class to predict next-request times.  XGBoost itself is a C++
dependency, so this module implements the same model family natively:
histogram-based greedy regression trees fit to residuals, with shrinkage,
subsampling and L2 leaf regularization.

Training is vectorized level by level: each fit bins every column once
into a histogram-key matrix, and each tree level takes one pair of
``bincount`` histograms, one gain search and one partition over every
node of the level.  Histograms are only as wide as the widest column's
bin range actually in use, not ``n_bins``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _sigmoid(raw: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(raw, -60.0, 60.0)))


def _check_finite(name: str, targets: np.ndarray) -> None:
    """Reject NaN and +-inf targets, naming the first bad row: one poisons
    every residual (or, in validation, the early-stopping loss)."""
    bad = np.flatnonzero(~np.isfinite(targets))
    if bad.size:
        raise ValueError(
            f"{name} must be finite; row {bad[0]} is {targets.flat[bad[0]]}"
        )


def _walk(
    features: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    node: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Route each row ``steps`` levels down self-looping node arrays.

    ``node`` holds each row's start node; a 2-D ``node`` walks one row
    of starts per tree, every column being one row of ``features``.
    Leaves point back at themselves and gather column 0, so a fixed walk
    needs no active mask: a row that reaches its leaf early spins in
    place.  Every step routes ``x[feature] <= threshold`` left, as the
    scalar walk does (a NaN feature goes right).  Rows are gathered from
    the raveled block, so a block narrower than the columns the trees
    split on is rejected up front.
    """
    num_columns = features.shape[1]
    if steps and feature.max() >= num_columns:
        raise ValueError(
            f"features have {num_columns} columns; the model splits on "
            f"column {feature.max()}"
        )
    rows = np.arange(features.shape[0]) * num_columns
    values = features.ravel()
    for _ in range(steps):
        go_left = values.take(rows + feature.take(node)) <= threshold.take(node)
        node = np.where(go_left, left.take(node), right.take(node))
    return node


@dataclass
class _Tree:
    """Flat array representation of one regression tree.

    ``feature[i] < 0`` marks node ``i`` as a leaf with prediction
    ``value[i]``; internal nodes route ``x[feature] <= threshold`` left.
    ``depth`` is the maximum root-to-leaf edge count (0 for a stump).
    ``fit`` records it as it grows the tree; a tree built from bare node
    arrays (a loaded model) measures it once, here.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int | None = None
    _loops: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.depth is None:
            self.depth = self._measure_depth()

    def self_looping(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(feature, left, right)`` with every leaf made self-looping
        (cached): its children point back at it and it gathers column 0."""
        if self._loops is None:
            leaf = self.feature < 0
            own = np.arange(self.feature.size)
            self._loops = (
                np.where(leaf, 0, self.feature),
                np.where(leaf, own, self.left),
                np.where(leaf, own, self.right),
            )
        return self._loops

    def predict(self, features: np.ndarray) -> np.ndarray:
        feature, left, right = self.self_looping()
        start = np.zeros(features.shape[0], dtype=np.intp)
        node = _walk(
            features, feature, self.threshold, left, right, start, self.depth
        )
        return self.value[node]

    def as_lists(self) -> tuple[list, list, list, list, list]:
        """Plain-list view of the node arrays, for the scalar fast path."""
        return (
            self.feature.tolist(),
            self.threshold.tolist(),
            self.left.tolist(),
            self.right.tolist(),
            self.value.tolist(),
        )

    @property
    def num_nodes(self) -> int:
        return self.feature.size

    def _measure_depth(self) -> int:
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


class GradientBoostingRegressor:
    """Squared-loss gradient boosting with histogram split search.

    Parameters mirror the XGBoost knobs the paper's configuration uses.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds (trees).
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Maximum tree depth (0 grows stumps).
    min_samples_leaf:
        Minimum samples on each side of a split (at least 1).
    n_bins:
        Histogram resolution for split search (max 256).
    l2_regularization:
        Non-negative L2 penalty on leaf values (XGBoost's ``lambda``).
    subsample:
        Row subsampling fraction per tree; 1.0 disables.
    seed:
        RNG seed for subsampling.
    loss:
        ``"squared"`` (the paper's choice, Section 5.2.4) or
        ``"logistic"`` — log-loss on 0/1 labels; ``predict`` then returns
        probabilities through a sigmoid.
    early_stopping_rounds:
        If > 0 and ``fit`` is given validation data, stop adding trees
        after this many rounds without validation improvement.
    """

    LOSSES = ("squared", "logistic")

    def __init__(
        self,
        n_estimators: int = 16,
        learning_rate: float = 0.3,
        max_depth: int = 4,
        min_samples_leaf: int = 8,
        n_bins: int = 64,
        l2_regularization: float = 1.0,
        subsample: float = 1.0,
        seed: int = 0,
        loss: str = "squared",
        early_stopping_rounds: int = 0,
    ):
        if n_estimators <= 0:
            raise ValueError("n_estimators must be positive")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if not 2 <= n_bins <= 256:
            raise ValueError("n_bins must lie in [2, 256]")
        if not l2_regularization >= 0.0:
            raise ValueError("l2_regularization must be non-negative")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must lie in (0, 1]")
        if loss not in self.LOSSES:
            raise ValueError(f"loss must be one of {self.LOSSES}")
        if early_stopping_rounds < 0:
            raise ValueError("early_stopping_rounds must be non-negative")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_bins = n_bins
        self.l2_regularization = l2_regularization
        self.subsample = subsample
        self.loss = loss
        self.early_stopping_rounds = early_stopping_rounds
        self._rng = np.random.default_rng(seed)
        self._trees: list[_Tree] = []
        self._scalar_trees: list | None = None
        self._flat_trees: tuple | None = None
        self._metadata_bytes: int | None = None
        self._base_score = 0.0
        self._fitted = False

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GradientBoostingRegressor":
        """Fit the ensemble to ``(features, targets)``; returns self.

        ``validation`` is an optional ``(features, targets)`` pair used
        for early stopping when ``early_stopping_rounds > 0``.  A NaN or
        infinite target raises ``ValueError`` naming its row; NaN and
        infinite features are accepted.
        """
        features = np.ascontiguousarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be 2-D (samples x features)")
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets disagree on sample count")
        if features.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        _check_finite("targets", targets)
        if self.loss == "logistic" and not np.isin(targets, (0.0, 1.0)).all():
            raise ValueError("logistic loss needs 0/1 targets")

        keys, bin_edges, width = self._bin_features(features)
        if self.loss == "logistic":
            mean = min(max(float(targets.mean()), 1e-6), 1.0 - 1e-6)
            self._base_score = float(np.log(mean / (1.0 - mean)))
        else:
            self._base_score = float(targets.mean())
        raw = np.full(targets.shape[0], self._base_score)
        self._trees = []
        num_samples = features.shape[0]
        all_rows = np.arange(num_samples)

        use_validation = validation is not None and self.early_stopping_rounds > 0
        if use_validation:
            val_features = np.ascontiguousarray(validation[0], dtype=np.float64)
            val_targets = np.asarray(validation[1], dtype=np.float64)
            _check_finite("validation targets", val_targets)
            val_raw = np.full(val_targets.shape[0], self._base_score)
            best_loss = np.inf
            best_round = 0

        for round_index in range(self.n_estimators):
            residuals = self._negative_gradient(targets, raw)
            rows = all_rows
            if self.subsample < 1.0:
                mask = self._rng.random(num_samples) < self.subsample
                # Too small a draw falls back to every row.
                if np.count_nonzero(mask) >= max(2 * self.min_samples_leaf, 4):
                    rows = np.flatnonzero(mask)
            tree = self._fit_tree(keys, residuals, rows, bin_edges, width)
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
        # Refitting replaces the ensemble: drop every derived cache so
        # stale scalar/flattened trees / footprint numbers cannot outlive
        # the trees they were built from.
        self._scalar_trees = None
        self._flat_trees = None
        self._metadata_bytes = None
        self._fitted = True
        return self

    def _negative_gradient(self, targets: np.ndarray, raw: np.ndarray) -> np.ndarray:
        if self.loss == "logistic":
            return targets - _sigmoid(raw)
        return targets - raw

    def _loss_value(self, targets: np.ndarray, raw: np.ndarray) -> float:
        if self.loss == "logistic":
            probabilities = np.clip(_sigmoid(raw), 1e-12, 1.0 - 1e-12)
            return float(
                -(targets * np.log(probabilities)
                  + (1.0 - targets) * np.log(1.0 - probabilities)).mean()
            )
        return float(((targets - raw) ** 2).mean())

    def _bin_features(
        self, features: np.ndarray
    ) -> tuple[np.ndarray, list[list[float]], int]:
        """Quantile-bin every column once per fit.

        Column ``j`` codes ``x`` as ``searchsorted(cuts_j, x,
        side="right")``, a code in ``[0, cuts_j.size]``.  Returns the
        histogram-key matrix ``code + j * width`` (intp), every column's
        cuts, and the histogram width ``max_j cuts_j.size + 1``: the
        widest bin range in use, often far below ``n_bins``.
        """
        num_samples, num_features = features.shape
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        # One axis-0 quantile call covers every column.
        all_cuts = np.quantile(features, quantiles, axis=0)
        edges = [np.unique(all_cuts[:, j]) for j in range(num_features)]
        width = max(cuts.size for cuts in edges) + 1
        keys = np.empty((num_samples, num_features), dtype=np.intp)
        for j, cuts in enumerate(edges):
            keys[:, j] = np.searchsorted(cuts, features[:, j], side="right")
        keys += np.arange(num_features) * width
        return keys, [cuts.tolist() for cuts in edges], width

    def _fit_tree(
        self,
        keys: np.ndarray,
        residuals: np.ndarray,
        rows: np.ndarray,
        bin_edges: list[list[float]],
        width: int,
    ) -> _Tree:
        """Grow one regression tree on ``rows``, level by level.

        Each level is one batch of array operations over all its nodes:
        one gain search (:meth:`_best_cells`) and one stable sort that
        partitions the level's rows into the next level's nodes.  ``rows``
        stay grouped by node in breadth-first order and ascending within
        each node, so every node total is one pairwise ``np.add.reduce``
        over the node's residuals in ascending row order.  Nodes are
        numbered breadth-first, each split adding a (left, right) pair,
        and the tree records its depth.
        """
        lam = self.l2_regularization
        num_features = keys.shape[1]
        key_values = keys.ravel()
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        value: list[float] = []
        sizes = [rows.size]  # rows per node of the level
        node_of_row = np.zeros(rows.size, dtype=np.intp)  # index in level
        first = 0  # id of the level's first node
        depth = 0
        while True:
            num_nodes = len(sizes)
            res = residuals.take(rows)
            totals = []
            end = 0
            for size in sizes:
                totals.append(float(np.add.reduce(res[end : end + size])))
                end += size
            value.extend([t / (c + lam) for t, c in zip(totals, sizes)])
            if depth >= self.max_depth or width == 1:
                break
            cells = self._best_cells(
                keys.take(rows, axis=0), node_of_row, res, sizes, totals, width
            )
            if max(cells) < 0:
                break
            # Per node: (child offset into the next level, split feature,
            # key of the split's last left bin).  Split nodes take (left,
            # right) child pairs in level order; the rows of nodes that
            # stay leaves get an offset past every child and drop.
            routes = []
            next_first = first + num_nodes
            pairs = 0
            for cell in cells:
                if cell < 0:
                    feature.append(-1)
                    threshold.append(0.0)
                    left.append(-1)
                    routes += (2 * num_nodes, 0, 0)
                else:
                    feat, split_bin = divmod(cell, width - 1)
                    feature.append(feat)
                    threshold.append(bin_edges[feat][split_bin])
                    left.append(next_first + pairs)
                    routes += (pairs, feat, feat * width + split_bin)
                    pairs += 2
            offset, feat, cut = (
                np.array(routes).reshape(-1, 3).T.take(node_of_row, axis=1)
            )
            # Partition: a row goes right past its node's split bin.
            child = offset + (key_values.take(rows * num_features + feat) > cut)
            sizes = np.bincount(child)[:pairs].tolist()
            # Child indices fit a small integer type, which NumPy's stable
            # sort handles by radix sort.
            kept = np.argsort(
                child.astype(np.min_scalar_type(2 * num_nodes + 1)), kind="stable"
            )[: sum(sizes)]
            rows = rows.take(kept)
            node_of_row = child.take(kept)
            first = next_first
            depth += 1

        # The last level is all leaves.
        feature.extend([-1] * len(sizes))
        threshold.extend([0.0] * len(sizes))
        left.extend([-1] * len(sizes))
        left_ = np.array(left, dtype=np.int32)
        return _Tree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=left_,
            right=np.where(left_ < 0, -1, left_ + 1).astype(np.int32),
            value=np.array(value, dtype=np.float64),
            depth=depth,
        )

    def _best_cells(
        self,
        level_keys: np.ndarray,
        node_of_row: np.ndarray,
        res: np.ndarray,
        sizes: list[int],
        totals: list[float],
        width: int,
    ) -> list[int]:
        """Each node's best split cell ``feature * (width - 1) + bin``, or
        -1 where the node stays a leaf.

        One ``bincount`` pair over ``(node, feature, bin)`` keys builds
        every node's integer count and residual-sum histogram.  Each cell
        sums its residuals in ascending row order, because the level's
        rows are ascending within each node.  The gains of every split of
        every node then come from one expression over a ``(side, node,
        feature, bin)`` array, with the same float operations per split
        as a node-at-a-time scan.  ``argmax`` over each node's
        feature-major, bin-minor cells keeps the first maximum.

        Codes of feature ``j`` lie in ``[0, cuts_j.size]``, so a split at
        or past its cut count leaves the right side empty, and
        ``min_samples_leaf >= 1`` already rejects it.  The histograms are
        therefore only ``width`` bins wide, not ``n_bins``.
        """
        lam = self.l2_regularization
        min_leaf = self.min_samples_leaf
        num_nodes = len(sizes)
        num_features = level_keys.shape[1]
        # ``level_keys`` is the level's own gather: offset it in place.
        stripe = num_features * width  # histogram cells per node
        if num_nodes > 1:
            level_keys += (node_of_row * stripe)[:, None]
        flat = level_keys.ravel()
        length = stripe * num_nodes
        shape = (num_nodes, num_features, width)
        counts = np.bincount(flat, minlength=length).reshape(shape)
        sums = np.bincount(
            flat, weights=res.repeat(num_features), minlength=length
        ).reshape(shape)
        # Left (index 0) and right (index 1) side of every split.
        side_shape = (2, num_nodes, num_features, width - 1)
        side_counts = np.empty(side_shape, dtype=np.intp)
        side_sums = np.empty(side_shape)
        counts[:, :, :-1].cumsum(axis=2, out=side_counts[0])
        sums[:, :, :-1].cumsum(axis=2, out=side_sums[0])
        np.subtract(np.array(sizes)[:, None, None], side_counts[0], out=side_counts[1])
        np.subtract(np.array(totals)[:, None, None], side_sums[0], out=side_sums[1])
        valid = np.minimum(side_counts[0], side_counts[1]) >= min_leaf
        np.square(side_sums, out=side_sums)
        side_sums /= side_counts + lam
        gains = side_sums[0] + side_sums[1]
        gains -= np.array([t * t / (c + lam) for t, c in zip(totals, sizes)])[
            :, None, None
        ]
        gains = np.where(valid, gains, -np.inf).reshape(num_nodes, -1)
        # No valid split leaves the maximum at -inf; a NaN gain splits.
        return [
            -1 if gains[node, cell] <= 1e-12 else cell
            for node, cell in enumerate(gains.argmax(axis=1).tolist())
        ]

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _flatten(self) -> tuple:
        """Concatenate all trees' self-looping node arrays (cached).

        Every tree's nodes land in a shared index space (tree ``t`` is
        offset by the node count of trees ``0..t-1``), so one fixed walk
        of the deepest tree's depth routes a block through every tree.
        """
        if self._flat_trees is None:
            sizes = [tree.num_nodes for tree in self._trees]
            offsets = np.cumsum([0] + sizes[:-1])
            loops = [tree.self_looping() for tree in self._trees]
            self._flat_trees = (
                np.concatenate([loop[0] for loop in loops]),
                np.concatenate([tree.threshold for tree in self._trees]),
                np.concatenate([loop[1] + off for loop, off in zip(loops, offsets)]),
                np.concatenate([loop[2] + off for loop, off in zip(loops, offsets)]),
                np.concatenate([tree.value for tree in self._trees]),
                offsets,
                max(tree.depth for tree in self._trees),
            )
        return self._flat_trees

    def _raw_scores(self, features: np.ndarray) -> np.ndarray:
        """Raw (pre-link) ensemble scores for a 2-D feature block.

        Accumulates tree contributions one tree at a time in boosting
        order, so every element sees the exact float-op sequence of both
        the per-tree ``predict`` loop ``fit`` runs and the scalar
        ``predict_one`` walk (``raw += rate * leaf``); a fused or pairwise
        summation would round differently.
        """
        num_rows = features.shape[0]
        raw = np.full(num_rows, self._base_score)
        if not self._trees or num_rows == 0:
            return raw
        feature_, threshold_, left_, right_, value_, offsets, depth_max = (
            self._flatten()
        )
        start = np.repeat(offsets[:, None], num_rows, axis=1)
        leaves = value_[
            _walk(features, feature_, threshold_, left_, right_, start, depth_max)
        ]
        rate = self.learning_rate
        for t in range(offsets.size):
            raw += rate * leaves[t]
        return raw

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets (probabilities under logistic loss)."""
        if not self._fitted:
            raise RuntimeError("model has not been fitted")
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        raw = self._raw_scores(features)
        if self.loss == "logistic":
            return _sigmoid(raw)
        return raw

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Vectorized prediction, bit-identical to ``predict_one`` rows.

        ``predict`` and ``predict_batch`` share the flattened raw-score
        engine; they differ only in the logistic link.  ``predict``
        keeps the historical vectorized ``np.exp`` sigmoid, while this
        method applies ``predict_one``'s scalar ``math.exp`` formula per
        element — the two disagree in the last ulp on ~2% of inputs, and
        the batched cache path must reproduce the scalar path exactly.
        """
        if not self._fitted:
            raise RuntimeError("model has not been fitted")
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        raw = self._raw_scores(features)
        if self.loss == "logistic":
            out = np.empty(raw.shape[0], dtype=np.float64)
            for i, total in enumerate(raw.tolist()):
                out[i] = 1.0 / (1.0 + math.exp(-min(max(total, -60.0), 60.0)))
            return out
        return raw

    def predict_one(self, feature_row) -> float:
        """Predict a single sample in pure Python.

        Online policies score every request one at a time; the vectorized
        path costs ~30us of NumPy overhead per tree, so this scalar walk
        over plain lists is ~20x faster for single rows.  ``feature_row``
        may be any indexable of floats.
        """
        if not self._fitted:
            raise RuntimeError("model has not been fitted")
        if self._scalar_trees is None:
            self._scalar_trees = [tree.as_lists() for tree in self._trees]
        row = feature_row.tolist() if hasattr(feature_row, "tolist") else feature_row
        total = self._base_score
        rate = self.learning_rate
        for feature, threshold, left, right, value in self._scalar_trees:
            node = 0
            feat = feature[0]
            while feat >= 0:
                node = left[node] if row[feat] <= threshold[node] else right[node]
                feat = feature[node]
            total += rate * value[node]
        if self.loss == "logistic":
            return 1.0 / (1.0 + math.exp(-min(max(total, -60.0), 60.0)))
        return total

    def feature_importances(self, num_features: int | None = None) -> np.ndarray:
        """Split-count importances, normalized to sum to 1.

        ``num_features`` sizes the output when it cannot be inferred from
        the trees (e.g. a stump-only ensemble).
        """
        if not self._fitted:
            raise RuntimeError("model has not been fitted")
        max_feature = -1
        for tree in self._trees:
            internal = tree.feature[tree.feature >= 0]
            if internal.size:
                max_feature = max(max_feature, int(internal.max()))
        size = num_features if num_features is not None else max_feature + 1
        counts = np.zeros(max(size, max_feature + 1), dtype=np.float64)
        for tree in self._trees:
            internal = tree.feature[tree.feature >= 0]
            if internal.size:
                counts += np.bincount(internal, minlength=counts.size)
        total = counts.sum()
        return counts / total if total > 0 else counts

    @property
    def num_trees(self) -> int:
        return len(self._trees)

    def fingerprint(self, num_features: int | None = None) -> dict:
        """Structural fingerprint of the fitted ensemble.

        Tree count, realized maximum depth, total node count and the
        split-count feature importances — the per-refit model identity
        the learner observatory records so consecutive refits can be
        compared without holding the models themselves.
        """
        if not self._fitted:
            raise RuntimeError("model has not been fitted")
        return {
            "trees": self.num_trees,
            "max_tree_depth": max((tree.depth for tree in self._trees), default=0),
            "tree_nodes": sum(tree.num_nodes for tree in self._trees),
            "importances": self.feature_importances(num_features),
        }

    def metadata_bytes(self) -> int:
        """Model size in bytes (for the memory-overhead experiments).

        Trees are immutable between fits, so the walk runs once per
        (re)fit and the result is cached — the engine's metadata probes
        query this on a fixed cadence during replay.
        """
        if self._metadata_bytes is None:
            total = 0
            for tree in self._trees:
                total += (
                    tree.feature.nbytes
                    + tree.threshold.nbytes
                    + tree.left.nbytes
                    + tree.right.nbytes
                    + tree.value.nbytes
                )
            self._metadata_bytes = total
        return self._metadata_bytes
