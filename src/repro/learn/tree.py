"""CART regression tree on histogram-binned features, pure NumPy.

The tree is the weak learner inside :mod:`repro.learn.gbm`. It is grown
LightGBM-style: each feature is quantized into ≤255 ``uint8`` bins and
mapped to histogram slots once per fit (:func:`_fit_layout`), per-node
histograms of (cumulative count, Σy) are built with one ``bincount`` each
over all features at once, and every candidate cut of every feature is
scored in one vectorized pass over the (d, n_bins) histogram — no sorting
inside nodes. A cut is valid when both sides keep ``min_samples_leaf``
rows, which also rules out cuts past a feature's last bin. Whether a child
can still split is decided when its parent splits: a child that cannot (at
``max_depth``, below ``min_samples_split`` or pure) becomes a leaf on the
spot and is never scanned, and a leaf at ``max_depth`` gets its value from
the caller. When a child will grow, the subtraction trick (child = parent
− sibling) means only the smaller child is ever scanned. Every node sees
every row and every feature, so growing a tree draws no random numbers.

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


def _fit_layout(binner: _Binner, X: np.ndarray):
    """What every tree of one fit shares: the slot map and the root's counts.

    ``slots`` holds ``f * n_total + b`` for code ``b`` of feature ``f``, so
    one flattened ``bincount`` covers every feature at once, and "code ≤ b"
    is "slot ≤ f * n_total + b". Counts depend only on the codes, so the
    root's cumulative counts are computed once per fit, not once per tree.
    """
    d, n_total = X.shape[1], binner.n_total_bins_
    slots = binner.transform(X).astype(np.intp)
    slots += np.arange(d, dtype=np.intp) * n_total
    return slots, _cumulative_counts(slots.ravel(), d, n_total)


def _cumulative_counts(flat: np.ndarray, d: int, n_total: int) -> np.ndarray:
    """Rows at or below each bin, shape (d, n_total): ``left_n`` of every
    cut. Counts are float64 (exact below 2**53), so a sibling's is exactly
    parent − child and the gain arithmetic never casts them."""
    cnt = np.bincount(flat, minlength=d * n_total).reshape(d, n_total)
    return np.add.accumulate(cnt, axis=1, dtype=np.float64)


def _target_sums(flat: np.ndarray, yh: np.ndarray, d: int, n_total: int):
    """Σy histogram of one node, shape (d, n_total); ``yh`` in row order."""
    wsum = np.bincount(flat, weights=yh.repeat(d), minlength=d * n_total)
    return wsum.reshape(d, n_total)


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
        self._fit_binned(*_fit_layout(binner, X), y, binner)
        # Max-depth leaves: a leaf's rows are in ascending order, as in the
        # builder, so the mean is the same pairwise sum.
        value, leaves = self.tree_.value[:, 0], self._train_leaves_
        for leaf in np.flatnonzero(np.isnan(value)):
            value[leaf] = self._leaf_stats(y[leaves == leaf])[0]
        return self

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

    def _fit_binned(self, slots, root_left_n, y: np.ndarray, binner: _Binner):
        """Grow the tree from a fit's shared :func:`_fit_layout`.

        Ensembles call this directly so binning and the root's counts are
        paid once per ensemble fit rather than once per tree. Leaves at
        ``max_depth`` get value and impurity NaN: the caller sets their
        values (the GBM's Newton step, or ``fit``'s means); their impurity
        stays NaN, and nothing reads ``tree_.impurity``.
        """
        max_depth = self._check_builder_params()
        min_split, min_leaf = self.min_samples_split, self.min_samples_leaf
        n, d = slots.shape
        n_total = binner.n_total_bins_
        buffers = _TreeBuffers()
        # Leaf id of every training sample (all in the root, node 0, until
        # they are routed), so ensembles never re-route the training set.
        train_leaves = np.zeros(n, dtype=np.int64)

        root_value, root_imp = self._leaf_stats(y)
        buffers.add_node(root_value, n, root_imp)
        # Split-search histograms use mean-centered targets: the
        # SSE-reduction gain is shift-invariant mathematically, and centered
        # sums avoid catastrophic cancellation on large-offset y.
        yh = y - root_value
        # With every feature constant (n_total == 1) the root stays a leaf.
        stack = []
        if n_total > 1 and not (n < min_split or root_imp <= 1e-12):
            wsum = _target_sums(slots.ravel(), yh, d, n_total)
            stack.append((0, np.arange(n), 0, root_left_n, wsum))
        # One errstate switch for the whole build (zero-count divisions are
        # masked by the validity filter; per-node context managers cost more
        # than the arithmetic at this node size).
        with np.errstate(divide="ignore", invalid="ignore"):
            # Depth-first; every node on the stack can split.
            while stack:
                node_id, idx, depth, left_n, wsum = stack.pop()
                m = idx.shape[0]
                # Cumulative histograms score every cut of every feature at
                # once. Gain is the SSE reduction: the Σy² terms cancel,
                # leaving only squared sums. A cut needs min_leaf rows on
                # each side; that also rules out the cuts at or past a
                # feature's last bin (no rows to their right).
                left_sum = np.add.accumulate(wsum, axis=1)
                total = float(np.add.reduce(wsum[0]))
                right_n = m - left_n
                right_sum = total - left_sum
                gain = left_sum * left_sum
                gain /= left_n
                right_sum *= right_sum
                right_sum /= right_n
                gain += right_sum
                gain -= total * total / m
                gain[np.minimum(left_n, right_n) < min_leaf] = -np.inf
                # Slot f * n_total + b is the cut "code of f ≤ b".
                cut = int(gain.argmax())
                best_gain = gain.item(cut)
                # Also False for a NaN or infinite gain.
                if not 1e-12 < best_gain < np.inf:
                    train_leaves[idx] = node_id
                    continue
                best_feat, best_bin = divmod(cut, n_total)
                buffers.feature[node_id] = best_feat
                buffers.threshold[node_id] = float(binner.edges_[best_feat][best_bin])
                go_left = slots[:, best_feat][idx] <= cut
                # A child that cannot split is a leaf from here on: it is
                # never pushed and its histogram is never built.
                ids, parts, grows = [], (idx[go_left], idx[~go_left]), []
                for part in parts:
                    mc = part.shape[0]
                    if depth + 1 < max_depth:
                        value, imp = self._leaf_stats(y[part])
                        grows.append(not (mc < min_split or imp <= 1e-12))
                    else:
                        value, imp = np.nan, np.nan
                        grows.append(False)
                    ids.append(buffers.add_node(value, mc, imp))
                    if not grows[-1]:
                        train_leaves[part] = ids[-1]
                buffers.left[node_id], buffers.right[node_id] = ids
                if not any(grows):
                    continue
                # Subtraction trick: scan only the smaller child (the left on
                # a tie), derive the larger one's histograms from the parent's.
                small = int(parts[0].shape[0] > parts[1].shape[0])
                big = 1 - small
                flat = slots.take(parts[small], axis=0).ravel()
                hist_s = (
                    _cumulative_counts(flat, d, n_total),
                    _target_sums(flat, yh[parts[small]], d, n_total),
                )
                if grows[small]:
                    stack.append((ids[small], parts[small], depth + 1, *hist_s))
                if grows[big]:
                    left_n_b, wsum_b = left_n - hist_s[0], wsum - hist_s[1]
                    stack.append((ids[big], parts[big], depth + 1, left_n_b, wsum_b))

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
