"""CART decision trees (regression and classification), pure NumPy.

The regressor is the weak learner inside :mod:`repro.learn.gbm`; both trees
use an array-based node layout with fully vectorized prediction (samples are
routed level-by-level rather than one Python call per sample).

Two split-search strategies are available via ``splitter``:

- ``"exact"`` — per node, each candidate feature is sorted once and prefix
  sums give the variance (or Gini) reduction of every cut in O(n) after the
  O(n log n) sort.
- ``"hist"`` — LightGBM-style histogram training: each feature is quantized
  into ≤255 ``uint8`` bins once per fit (:class:`_Binner`), per-node
  histograms of (count, Σy) are built with a single ``bincount`` over all
  features at once, and every candidate cut of every feature is scored in
  one vectorized pass over the (d, n_bins) histogram — no sorting inside
  nodes. Whether a child can still split is decided when its parent
  splits: a child that cannot (at ``max_depth``, below
  ``min_samples_split`` or pure) becomes a leaf on the spot and is never
  scanned. When a child will grow, the subtraction trick (child = parent −
  sibling) means only the smaller child is ever scanned.

Thresholds found by the histogram splitter are real feature values (bin
edges), so fitted trees predict on raw, un-binned inputs either way.
:class:`_PackedTrees` routes rows through a whole ensemble of fitted trees
in one level-synchronous pass per depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.learn.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)

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


def _best_split_mse(
    Xf: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int,
):
    """Best threshold on one (already selected) feature column for MSE.

    Returns ``(gain, threshold)`` where gain is the reduction in total sum of
    squared errors; ``None`` when no legal split exists.
    """
    order = np.argsort(Xf, kind="mergesort")
    xs = Xf[order]
    ys = y[order]
    n = xs.shape[0]
    if xs[0] == xs[-1]:
        return None
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    total_sum = csum[-1]
    total_sq = csq[-1]
    # Candidate split after position i (1-based left size i+1).
    left_n = np.arange(1, n)
    left_sum = csum[:-1]
    left_sq = csq[:-1]
    right_n = n - left_n
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    # SSE of each side: sum(y^2) - (sum y)^2 / n.
    sse_left = left_sq - left_sum**2 / left_n
    sse_right = right_sq - right_sum**2 / right_n
    sse_parent = total_sq - total_sum**2 / n
    gain = sse_parent - (sse_left + sse_right)
    # Disallow splitting between equal values and undersized leaves.
    valid = (xs[1:] != xs[:-1]) & (left_n >= min_samples_leaf) & (
        right_n >= min_samples_leaf
    )
    if not np.any(valid):
        return None
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]) or gain[best] <= 1e-12:
        return None
    thr = 0.5 * (xs[best] + xs[best + 1])
    return float(gain[best]), float(thr)


def _best_split_gini(
    Xf: np.ndarray,
    y01: np.ndarray,
    min_samples_leaf: int,
):
    """Best threshold for binary Gini impurity; ``y01`` in {0, 1}."""
    order = np.argsort(Xf, kind="mergesort")
    xs = Xf[order]
    ys = y01[order]
    n = xs.shape[0]
    if xs[0] == xs[-1]:
        return None
    cpos = np.cumsum(ys)
    total_pos = cpos[-1]
    left_n = np.arange(1, n)
    left_pos = cpos[:-1]
    right_n = n - left_n
    right_pos = total_pos - left_pos
    p_l = left_pos / left_n
    p_r = right_pos / right_n
    gini_l = 2.0 * p_l * (1.0 - p_l)
    gini_r = 2.0 * p_r * (1.0 - p_r)
    p_parent = total_pos / n
    gini_parent = 2.0 * p_parent * (1.0 - p_parent)
    weighted = (left_n * gini_l + right_n * gini_r) / n
    gain = gini_parent - weighted
    valid = (xs[1:] != xs[:-1]) & (left_n >= min_samples_leaf) & (
        right_n >= min_samples_leaf
    )
    if not np.any(valid):
        return None
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]) or gain[best] <= 1e-12:
        return None
    thr = 0.5 * (xs[best] + xs[best + 1])
    return float(gain[best]), float(thr)


class _BaseDecisionTree(BaseEstimator):
    """Shared recursive builder; subclasses define the split criterion."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[float] = None,
        splitter: str = "exact",
        max_bins: int = _MAX_HIST_BINS,
        random_state=None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self.max_bins = max_bins
        self.random_state = random_state

    # Subclass hooks -------------------------------------------------
    def _leaf_stats(self, y: np.ndarray):
        """(leaf value, impurity) of a node's targets as plain floats, in
        one pass — the builders' hot path, so subclasses use raw reductions
        rather than the ``np.var``/``np.mean`` wrappers."""
        raise NotImplementedError

    def _split(self, Xf: np.ndarray, y: np.ndarray):
        raise NotImplementedError

    def _hist_gain(
        self, left_n: np.ndarray, left_sum: np.ndarray, n: int, total: float
    ) -> np.ndarray:
        """Gain of every candidate cut from cumulative (count, Σy) pairs."""
        raise NotImplementedError

    def _hist_targets(self, y: np.ndarray) -> np.ndarray:
        """Targets the split-search histograms are built from (the leaf
        values always come from the raw ``y``)."""
        return y

    def _prepare_targets(self, y: np.ndarray) -> np.ndarray:
        return y

    # Builder --------------------------------------------------------
    def _n_candidate_features(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(np.sqrt(d)))
            if mf == "log2":
                return max(1, int(np.log2(d)))
            raise ValueError(f"Unknown max_features {mf!r}.")
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("float max_features must be in (0, 1].")
            return max(1, int(round(mf * d)))
        return max(1, min(int(mf), d))

    def _check_builder_params(self):
        rng = check_random_state(self.random_state)
        max_depth = np.inf if self.max_depth is None else int(self.max_depth)
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1.")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2.")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1.")
        if self.splitter not in ("exact", "hist"):
            raise ValueError(
                f"splitter must be 'exact' or 'hist'; got {self.splitter!r}."
            )
        return rng, max_depth

    def _grows(self, depth: int, m: int, imp: float, max_depth) -> bool:
        """Whether a node may still be split; otherwise it is a leaf."""
        return not (depth >= max_depth or m < self.min_samples_split or imp <= 1e-12)

    def _fit_validated(self, X: np.ndarray, y: np.ndarray):
        """Grow the tree on validated inputs, dispatching on ``splitter``."""
        if self.splitter == "hist":
            binner = _Binner(self.max_bins).fit(X)
            return self._fit_binned(binner.transform(X), y, binner)
        rng, max_depth = self._check_builder_params()
        d = X.shape[1]
        k = self._n_candidate_features(d)
        buffers = _TreeBuffers()
        # Leaf id of every training sample, filled as nodes terminate, so
        # ensembles don't re-route the training set after each stage.
        train_leaves = np.zeros(X.shape[0], dtype=np.int64)

        # Iterative depth-first construction (explicit stack avoids Python
        # recursion limits on deep trees).
        root_value, root_imp = self._leaf_stats(y)
        root_idx = buffers.add_node(root_value, y.shape[0], root_imp)
        stack = [(root_idx, np.arange(X.shape[0]), 0)]
        while stack:
            node_id, idx, depth = stack.pop()
            ysub = y[idx]
            imp = buffers.impurity[node_id]
            if not self._grows(depth, idx.shape[0], imp, max_depth):
                train_leaves[idx] = node_id
                continue
            if k < d:
                feats = rng.choice(d, size=k, replace=False)
            else:
                feats = np.arange(d)
            best_gain = -np.inf
            best_feat = -1
            best_thr = np.nan
            for f in feats:
                res = self._split(X[idx, f], ysub)
                if res is not None and res[0] > best_gain:
                    best_gain, best_thr = res
                    best_feat = int(f)
            if best_feat < 0:
                train_leaves[idx] = node_id
                continue
            go_left = X[idx, best_feat] <= best_thr
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            if (
                left_idx.shape[0] < self.min_samples_leaf
                or right_idx.shape[0] < self.min_samples_leaf
            ):
                train_leaves[idx] = node_id
                continue
            left_value, left_imp = self._leaf_stats(y[left_idx])
            right_value, right_imp = self._leaf_stats(y[right_idx])
            left_id = buffers.add_node(left_value, left_idx.shape[0], left_imp)
            right_id = buffers.add_node(
                right_value, right_idx.shape[0], right_imp
            )
            buffers.feature[node_id] = best_feat
            buffers.threshold[node_id] = best_thr
            buffers.left[node_id] = left_id
            buffers.right[node_id] = right_id
            stack.append((left_id, left_idx, depth + 1))
            stack.append((right_id, right_idx, depth + 1))

        self.tree_ = buffers.finalize()
        self.n_features_in_ = d
        self._train_leaves_ = train_leaves
        return self

    def _fit_binned(self, codes: np.ndarray, y: np.ndarray, binner: _Binner):
        """Grow the tree from pre-binned ``uint8`` codes (histogram splitter).

        Ensembles call this directly so the binning cost is paid once per
        ensemble fit rather than once per tree.
        """
        rng, max_depth = self._check_builder_params()
        n, d = codes.shape
        k = self._n_candidate_features(d)
        n_total = binner.n_total_bins_
        # Histogram slot f * n_total + code of every cell, once per tree.
        slots = codes.astype(np.intp) + np.arange(d, dtype=np.intp) * n_total
        # cut_exists[f, b]: feature f really has an edge after bin b.
        cut_exists = np.arange(n_total - 1)[None, :] < (binner.n_bins_[:, None] - 1)
        buffers = _TreeBuffers()
        train_leaves = np.zeros(n, dtype=np.int64)  # all in the root, node 0

        root_value, root_imp = self._leaf_stats(y)
        buffers.add_node(root_value, n, root_imp)
        # Split-search histograms use (for regression) mean-centered targets:
        # the SSE-reduction gain is shift-invariant mathematically, and
        # centered sums avoid catastrophic cancellation on large-offset y.
        yh = self._hist_targets(y)
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
                # Cumulative histograms score every cut of every feature at once.
                left_n = np.cumsum(cnt, axis=1)[:, :-1]
                left_sum = np.cumsum(wsum, axis=1)[:, :-1]
                total = float(wsum[0].sum())
                gain = self._hist_gain(left_n, left_sum, m, total)
                valid = (
                    cut_exists
                    & (left_n >= self.min_samples_leaf)
                    & (m - left_n >= self.min_samples_leaf)
                )
                if k < d:
                    chosen = np.zeros(d, dtype=bool)
                    chosen[rng.choice(d, size=k, replace=False)] = True
                    valid = valid & chosen[:, None]
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

    @property
    def n_leaves_(self) -> int:
        check_is_fitted(self, ["tree_"])
        return self.tree_.n_leaves


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regression tree minimizing squared error."""

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        return self._fit_validated(X, y)

    def _leaf_stats(self, y: np.ndarray):
        s = float(np.add.reduce(y))
        mean = s / y.shape[0]
        # Centered two-pass n·var: the one-pass Σy² − (Σy)²/n form suffers
        # catastrophic cancellation on large-offset targets.
        d = y - mean
        return mean, float(d @ d)

    def _split(self, Xf, y):
        return _best_split_mse(Xf, y, self.min_samples_leaf)

    def _hist_targets(self, y):
        # Mean-center so squared-sum gains stay well-conditioned when the
        # target has a large offset (latencies, raw measurements).
        return y - np.add.reduce(y) / y.shape[0]

    def _hist_gain(self, left_n, left_sum, n, total):
        # SSE reduction: the Σy² terms cancel, leaving only squared sums.
        # Division by zero-count cuts is masked by the caller's validity
        # filter (the builder runs under errstate suppression).
        right_n = n - left_n
        right_sum = total - left_sum
        return (
            left_sum * left_sum / left_n
            + right_sum * right_sum / right_n
            - total * total / n
        )

    def predict(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        return self.tree_.predict(X)[:, 0]


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """Binary CART classification tree minimizing Gini impurity."""

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y, y_numeric=False)
        classes = np.unique(y)
        if classes.shape[0] > 2:
            raise ValueError("DecisionTreeClassifier supports binary labels only.")
        self.classes_ = classes
        y01 = (y == classes[-1]).astype(np.float64)
        return self._fit_validated(X, y01)

    def _leaf_stats(self, y: np.ndarray):
        # Stored value is p = P(class = classes_[-1]).
        n = y.shape[0]
        p = float(np.add.reduce(y)) / n
        return p, float(2.0 * p * (1.0 - p) * n)

    def _split(self, Xf, y):
        return _best_split_gini(Xf, y, self.min_samples_leaf)

    def _hist_gain(self, left_n, left_sum, n, total):
        # left_sum counts positives; n·gini = 2·pos·neg / n per side.
        # Zero-count divisions are masked by the caller's validity filter.
        right_n = n - left_n
        right_pos = total - left_sum
        g_left = 2.0 * left_sum * (left_n - left_sum) / left_n
        g_right = 2.0 * right_pos * (right_n - right_pos) / right_n
        g_parent = 2.0 * total * (n - total) / n
        # Same per-sample scale as the exact splitter's gain.
        return (g_parent - g_left - g_right) / n

    def predict_proba(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        p1 = self.tree_.predict(X)[:, 0]
        if self.classes_.shape[0] == 1:
            return np.ones((X.shape[0], 1))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        if self.classes_.shape[0] == 1:
            return np.full(proba.shape[0], self.classes_[0])
        return self.classes_[(proba[:, 1] >= 0.5).astype(int)]
