"""CART regression tree on histogram-binned features, pure NumPy.

The tree is the weak learner inside :mod:`repro.learn.gbm`. It is grown
LightGBM-style: each feature is quantized into ≤255 ``uint8`` bins once per
fit (:class:`_Binner`), per-node histograms of (count, Σy) are built with a
single ``bincount`` over all features at once, and every candidate cut of
every feature is scored in one vectorized pass over the (d, n_bins)
histogram — no sorting inside nodes. Whether a child can still split is
decided when its parent splits: a child that cannot (at ``max_depth``,
below ``min_samples_split`` or pure) becomes a leaf on the spot and is
never scanned. When a child will grow, the subtraction trick (child =
parent − sibling) means only the smaller child is ever scanned. Every node
sees every row and every feature, so growing a tree draws no random
numbers.

Thresholds are real feature values (bin edges), so fitted trees predict on
raw, un-binned inputs, routed level by level rather than one Python call
per sample. :class:`_PackedTrees` routes rows through a whole ensemble of
fitted trees in one level-synchronous pass per depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.learn.base import BaseEstimator, RegressorMixin
from repro.utils.validation import check_array, check_is_fitted, check_X_y

_LEAF = -1

#: Hard ceiling on histogram bins so codes fit in uint8.
_MAX_HIST_BINS = 256


class _Binner:
    """Quantile feature binner producing compact ``uint8`` codes.

    Each feature is cut at at most ``max_bins - 1`` edges: the midpoints
    between distinct observed values when the feature has few of them, its
    interior quantiles otherwise. Bin ``b`` holds values in
    ``(edges[b-1], edges[b]]``, so the candidate split "bin ≤ b" is exactly
    the raw-space split "x ≤ edges[b]" — trees trained on codes remain valid
    on raw features.
    """

    def __init__(self, max_bins: int = _MAX_HIST_BINS):
        if not 2 <= max_bins <= _MAX_HIST_BINS:
            raise ValueError(
                f"max_bins must be in [2, {_MAX_HIST_BINS}]; got {max_bins}."
            )
        self.max_bins = max_bins

    def fit(self, X: np.ndarray) -> "_Binner":
        edges: List[np.ndarray] = []
        for f in range(X.shape[1]):
            uniq = np.unique(X[:, f])
            if uniq.shape[0] <= 1:
                cuts = np.empty(0, dtype=np.float64)
            elif uniq.shape[0] <= self.max_bins:
                cuts = (uniq[:-1] + uniq[1:]) / 2.0
            else:
                qs = np.quantile(
                    X[:, f], np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
                )
                # Cuts are the interpolated quantiles themselves, not
                # midpoints, and may equal an observed value (which then
                # lands in the bin below). Tied quantiles are deduplicated,
                # so a heavily tied feature gets fewer than max_bins bins.
                cuts = np.unique(qs)
            edges.append(cuts)
        self.edges_ = edges
        self.n_bins_ = np.array([e.shape[0] + 1 for e in edges], dtype=np.int64)
        #: Width of the shared (d, n_total_bins_) histogram layout.
        self.n_total_bins_ = int(self.n_bins_.max())
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map raw features to bin codes; values beyond the fitted range
        land in the first/last bin."""
        codes = np.empty(X.shape, dtype=np.uint8)
        for f, cuts in enumerate(self.edges_):
            codes[:, f] = np.searchsorted(cuts, X[:, f], side="left")
        return codes


def _node_histograms(slots: np.ndarray, y: np.ndarray, idx: np.ndarray, n_total: int):
    """(count, Σy) histograms of one node, shape (d, n_bins) each.

    One flattened ``bincount`` covers every feature at once: ``slots`` holds
    ``f * n_bins + b`` for code ``b`` of feature ``f``. Counts are float64
    (exact below 2**53), so the gain arithmetic never casts them.
    """
    flat = slots[idx].ravel()
    d = slots.shape[1]
    cnt = np.bincount(flat, minlength=d * n_total).astype(np.float64)
    wsum = np.bincount(flat, weights=np.repeat(y[idx], d), minlength=d * n_total)
    return cnt.reshape(d, n_total), wsum.reshape(d, n_total)


@dataclass
class _TreeBuffers:
    """Growable flat arrays describing the tree (sklearn-style layout)."""

    feature: List[int] = field(default_factory=list)
    threshold: List[float] = field(default_factory=list)
    left: List[int] = field(default_factory=list)
    right: List[int] = field(default_factory=list)
    value: List[float] = field(default_factory=list)
    n_samples: List[int] = field(default_factory=list)
    impurity: List[float] = field(default_factory=list)

    def add_node(self, value: float, n: int, impurity: float) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(np.nan)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        self.n_samples.append(n)
        self.impurity.append(impurity)
        return len(self.feature) - 1

    def finalize(self) -> "_Tree":
        return _Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=np.float64)[:, None],
            n_samples=np.asarray(self.n_samples, dtype=np.int64),
            impurity=np.asarray(self.impurity, dtype=np.float64),
        )


@dataclass
class _Tree:
    """Immutable fitted tree; ``value`` is (n_nodes, n_outputs)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity: np.ndarray

    @property
    def node_count(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == _LEAF))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf index each row of ``X`` lands in (vectorized)."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] != _LEAF
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = node[idx]
            feat = self.feature[cur]
            go_left = X[idx, feat] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[node[idx]] != _LEAF
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return the node value for each row; shape (n, n_outputs)."""
        return self.value[self.apply(X)]


class _PackedTrees:
    """An ensemble's T fitted trees in flat node arrays, ``width`` slots each.

    ``leaf_values`` routes rows through all T trees at once, one pass per
    depth level. Node ids are global (``t * width + local``). The builders
    add a split's two children one after the other (right = left + 1), so
    only ``left`` is stored. Leaves and padding slots have threshold +inf
    and are their own left child, so rows that reach a leaf early stay put.
    """

    def __init__(self, trees: Sequence[_Tree]):
        sizes = np.array([tree.node_count for tree in trees], dtype=np.intp)
        width = int(sizes.max(initial=1))
        n_slots = len(trees) * width
        self.roots = np.arange(len(trees)) * width
        # Global ids of the real (unpadded) nodes, tree after tree, and each
        # node attribute concatenated in the same order ([[]]: no trees).
        local = np.arange(width)
        real = (self.roots[:, None] + local)[local < sizes[:, None]]
        feature, threshold, left, value = (
            np.concatenate([getattr(t, name).ravel() for t in trees] or [[]])
            for name in ("feature", "threshold", "left", "value")
        )
        split = feature != _LEAF
        self.feature = np.zeros(n_slots, dtype=np.intp)
        self.feature[real[split]] = feature[split]
        self.threshold = np.full(n_slots, np.inf)
        self.threshold[real[split]] = threshold[split]
        self.left = np.arange(n_slots)
        self.left[real[split]] = (left + np.repeat(self.roots, sizes))[split]
        self.value = np.zeros(n_slots)
        self.value[real] = value
        # Passes needed = deepest leaf: walk the internal nodes level by level.
        internal = self.left != np.arange(n_slots)
        self.depth, level = 0, self.roots[internal[self.roots]]
        while level.size:
            self.depth += 1
            level = np.concatenate([self.left[level], self.left[level] + 1])
            level = level[internal[level]]

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of each row in each tree, shape (T, n)."""
        n, d = X.shape
        flat_x, row = X.ravel(), np.arange(n) * d
        node = np.repeat(self.roots, n).reshape(-1, n)
        for _ in range(self.depth):
            # X is finite, so ``x > thr`` is exactly "not x <= thr".
            go_right = flat_x[row + self.feature[node]] > self.threshold[node]
            node = self.left[node] + go_right
        return self.value[node]

    def raw(self, X: np.ndarray, init: float, learning_rate: float) -> np.ndarray:
        """``init + Σ_t learning_rate · tree_t(X)``, summed tree by tree in
        an explicit loop: a reduction over axis 0 would sum one row pairwise,
        which rounds differently."""
        raw = np.full(X.shape[0], init, dtype=np.float64)
        for scaled in learning_rate * self.leaf_values(X):
            raw += scaled
        return raw


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regression tree minimizing squared error, grown on histograms."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_bins: int = _MAX_HIST_BINS,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        binner = _Binner(self.max_bins).fit(X)
        return self._fit_binned(binner.transform(X), y, binner)

    def _leaf_stats(self, y: np.ndarray):
        """(leaf value, impurity) of a node's targets as plain floats, in
        one pass — the builder's hot path, so raw reductions rather than
        the ``np.var``/``np.mean`` wrappers."""
        s = float(np.add.reduce(y))
        mean = s / y.shape[0]
        # Centered two-pass n·var: the one-pass Σy² − (Σy)²/n form suffers
        # catastrophic cancellation on large-offset targets.
        d = y - mean
        return mean, float(d @ d)

    def _check_builder_params(self):
        max_depth = np.inf if self.max_depth is None else int(self.max_depth)
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1.")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2.")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1.")
        return max_depth

    def _grows(self, depth: int, m: int, imp: float, max_depth) -> bool:
        """Whether a node may still be split; otherwise it is a leaf."""
        return not (depth >= max_depth or m < self.min_samples_split or imp <= 1e-12)

    def _fit_binned(self, codes: np.ndarray, y: np.ndarray, binner: _Binner):
        """Grow the tree from pre-binned ``uint8`` codes.

        Ensembles call this directly so the binning cost is paid once per
        ensemble fit rather than once per tree.
        """
        max_depth = self._check_builder_params()
        n, d = codes.shape
        n_total = binner.n_total_bins_
        # Histogram slot f * n_total + code of every cell, once per tree.
        slots = codes.astype(np.intp) + np.arange(d, dtype=np.intp) * n_total
        # cut_exists[f, b]: feature f really has an edge after bin b.
        cut_exists = np.arange(n_total - 1)[None, :] < (binner.n_bins_[:, None] - 1)
        buffers = _TreeBuffers()
        # Leaf id of every training sample (all in the root, node 0, until
        # they are routed), so ensembles never re-route the training set.
        train_leaves = np.zeros(n, dtype=np.int64)

        root_value, root_imp = self._leaf_stats(y)
        buffers.add_node(root_value, n, root_imp)
        # Split-search histograms use mean-centered targets: the
        # SSE-reduction gain is shift-invariant mathematically, and centered
        # sums avoid catastrophic cancellation on large-offset y.
        yh = y - np.add.reduce(y) / n
        root = np.arange(n)
        # With every feature constant (n_total == 1) the root stays a leaf.
        stack = []
        if n_total > 1 and self._grows(0, n, root_imp, max_depth):
            stack.append((0, root, 0, _node_histograms(slots, yh, root, n_total)))
        # One errstate switch for the whole build (zero-count divisions are
        # masked by the validity filter; per-node context managers cost more
        # than the arithmetic at this node size).
        with np.errstate(divide="ignore", invalid="ignore"):
            # Depth-first; every node on the stack can split.
            while stack:
                node_id, idx, depth, (cnt, wsum) = stack.pop()
                m = idx.shape[0]
                # Cumulative histograms score every cut of every feature at
                # once. Gain is the SSE reduction: the Σy² terms cancel,
                # leaving only squared sums.
                left_n = np.cumsum(cnt, axis=1)[:, :-1]
                left_sum = np.cumsum(wsum, axis=1)[:, :-1]
                total = float(wsum[0].sum())
                right_n = m - left_n
                right_sum = total - left_sum
                gain = (
                    left_sum * left_sum / left_n
                    + right_sum * right_sum / right_n
                    - total * total / m
                )
                valid = (
                    cut_exists
                    & (left_n >= self.min_samples_leaf)
                    & (right_n >= self.min_samples_leaf)
                )
                gain[~valid] = -np.inf
                flat_best = int(np.argmax(gain))
                best_feat, best_bin = divmod(flat_best, n_total - 1)
                best_gain = gain[best_feat, best_bin]
                if not np.isfinite(best_gain) or best_gain <= 1e-12:
                    train_leaves[idx] = node_id
                    continue
                buffers.feature[node_id] = int(best_feat)
                buffers.threshold[node_id] = float(binner.edges_[best_feat][best_bin])
                go_left = codes[idx, best_feat] <= best_bin
                # A child that cannot split is a leaf from here on: it is
                # never pushed and its histogram is never built.
                ids, parts, grows = [], (idx[go_left], idx[~go_left]), []
                for part in parts:
                    value, imp = self._leaf_stats(y[part])
                    ids.append(buffers.add_node(value, part.shape[0], imp))
                    grows.append(self._grows(depth + 1, part.shape[0], imp, max_depth))
                    if not grows[-1]:
                        train_leaves[part] = ids[-1]
                buffers.left[node_id], buffers.right[node_id] = ids
                if not any(grows):
                    continue
                # Subtraction trick: scan only the smaller child (the left on
                # a tie), derive the larger one's histograms from the parent's.
                small = int(parts[0].shape[0] > parts[1].shape[0])
                big = 1 - small
                cnt_s, wsum_s = _node_histograms(slots, yh, parts[small], n_total)
                if grows[small]:
                    stack.append((ids[small], parts[small], depth + 1, (cnt_s, wsum_s)))
                if grows[big]:
                    big_hist = (cnt - cnt_s, wsum - wsum_s)
                    stack.append((ids[big], parts[big], depth + 1, big_hist))

        self.tree_ = buffers.finalize()
        self.n_features_in_ = d
        self._train_leaves_ = train_leaves
        return self

    def _check_predict_input(self, X) -> np.ndarray:
        check_is_fitted(self, ["tree_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; tree was fitted with "
                f"{self.n_features_in_}."
            )
        return X

    def apply(self, X) -> np.ndarray:
        """Return leaf indices for each sample."""
        return self.tree_.apply(self._check_predict_input(X))

    def predict(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        return self.tree_.predict(X)[:, 0]

    @property
    def n_leaves_(self) -> int:
        check_is_fitted(self, ["tree_"])
        return self.tree_.n_leaves
