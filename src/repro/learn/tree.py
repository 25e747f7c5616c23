"""CART regression tree on histogram-binned features, pure NumPy.

The tree is the weak learner inside :mod:`repro.learn.gbm`. It is grown
LightGBM-style: each feature is quantized into ≤255 ``uint8`` bins and
mapped to histogram slots once per fit (:class:`_FitMemo`), per-node
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

All trees of one fit (a boosted ensemble's stages, or a lone tree) share
one :class:`_FitMemo`. A node's row set within a fit is fixed by its path
of cuts from the root, so the memo keeps, per path, what depends only on
the rows: the partition, the count histograms and the ``min_samples_leaf``
mask. Later stages that take the same cuts reuse it. Nothing in the memo
may depend on the residual, which changes every stage: Σy histograms,
gains, leaf statistics and Newton steps are always recomputed, so a tree
grown with a warm memo is bit-identical to one grown without. The memo
holds at most ``_MEMO_BYTES`` and dies with the fit.

Thresholds are real feature values (bin edges), so fitted trees predict on
raw, un-binned inputs, routed level by level rather than one Python call
per sample. :class:`_PackedTrees` routes rows through a whole ensemble of
fitted trees in one level-synchronous pass per depth.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.learn.base import BaseEstimator
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
        if not (
            isinstance(max_bins, numbers.Integral) and 2 <= max_bins <= _MAX_HIST_BINS
        ):
            raise ValueError(
                f"max_bins must be an integer in [2, {_MAX_HIST_BINS}]; "
                f"got {max_bins!r}."
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


def _check_builder_params(max_depth, min_samples_split, min_samples_leaf):
    """Validate the growth limits; returns ``max_depth`` (inf for None)."""
    if max_depth is not None and not (
        isinstance(max_depth, numbers.Integral) and max_depth >= 1
    ):
        raise ValueError(
            f"max_depth must be an integer >= 1 or None; got {max_depth!r}."
        )
    split, leaf = min_samples_split, min_samples_leaf
    if not (isinstance(split, numbers.Integral) and split >= 2):
        raise ValueError(f"min_samples_split must be an integer >= 2; got {split!r}.")
    if not (isinstance(leaf, numbers.Integral) and leaf >= 1):
        raise ValueError(f"min_samples_leaf must be an integer >= 1; got {leaf!r}.")
    return np.inf if max_depth is None else int(max_depth)


#: Bytes of node state one fit's memo may hold (:class:`_FitMemo`). With it,
#: a fit costs about one extra MiB at most; EXPERIMENTS.md ("One node memo
#: per GBM fit") has the measured sizes behind the choice.
_MEMO_BYTES = 1 << 20


class _Node:
    """Row-set state of one node that can split: its rows, every cut's
    left and right counts, and the cuts that leave a side short of
    ``min_samples_leaf`` rows. ``splits`` maps a cut to its memoized split
    (see :meth:`_FitMemo.split`); it is None for a node the memo does not
    hold, which then lives only as long as the tree that grows it."""

    __slots__ = ("idx", "left_n", "right_n", "short", "splits")

    def __init__(self, idx: np.ndarray, left_n: np.ndarray, min_leaf: int):
        self.idx = idx
        self.left_n = left_n
        self.right_n = idx.shape[0] - left_n
        self.short = np.minimum(left_n, self.right_n) < min_leaf
        self.splits = None


class _FitMemo:
    """What every tree of one fit shares: binning and all residual-free
    node state.

    Built once per fit, before any tree: it validates the growth limits,
    bins ``X`` and maps codes to histogram slots. ``slots`` holds
    ``f * n_total + b`` for code ``b`` of feature ``f``, so one flattened
    ``bincount`` covers every feature at once, and "code ≤ b" is "slot ≤
    f * n_total + b".

    Within one fit a node's row set is fixed by its path of (cut, side)
    from the root, and boosting stages keep taking the same cuts near the
    root. So the memo is a trie of :class:`_Node` keyed by those paths.
    For each cut a tree takes it keeps the partition, the smaller side's
    slot rows and the state of each child that may still grow. None of it
    depends on the residual: the builder still computes every Σy histogram,
    gain, leaf statistic and Newton step afresh, and counts are exact
    integers in float64, so a memoized tree is the same bit for bit. New
    entries stop once the arrays held reach ``_MEMO_BYTES``; held arrays
    are read-only. The memo dies with the fit.
    """

    def __init__(self, X, max_bins, max_depth, min_samples_split, min_samples_leaf):
        self.max_depth = _check_builder_params(
            max_depth, min_samples_split, min_samples_leaf
        )
        self.min_split, self.min_leaf = min_samples_split, min_samples_leaf
        self.binner = _Binner(max_bins).fit(X)
        n, d = X.shape
        n_total = self.binner.n_total_bins_
        slots = self.binner.transform(X).astype(np.intp)
        slots += np.arange(d, dtype=np.intp) * n_total
        self.slots, self.flat = slots, slots.ravel()
        self.root = _Node(
            np.arange(n), _cumulative_counts(self.flat, d, n_total), min_samples_leaf
        )
        self.root.splits = {}
        root = self.root
        for a in (slots, root.idx, root.left_n, root.right_n, root.short):
            a.setflags(write=False)
        #: Bytes of the arrays held below the root.
        self.nbytes = 0

    def split(self, node: _Node, cut: int, feat: int, depth: int):
        """``(parts, small, flat, children)`` of ``node`` cut at slot ``cut``
        of feature ``feat``: the two row sets (left, right), the index of
        the smaller one (the left on a tie), its flattened slot rows and a
        :class:`_Node` for each child that may still grow whatever the
        residual (None for one at ``max_depth`` or below
        ``min_samples_split``; ``flat`` is None when neither may). Kept
        under ``node`` while the memo has room and ``node`` is held.
        """
        idx = node.idx
        go_left = self.slots[:, feat][idx] <= cut
        parts = (idx[go_left], idx[~go_left])
        small = int(parts[0].shape[0] > parts[1].shape[0])
        flat, children = None, [None, None]
        big = 1 - small
        if depth + 1 < self.max_depth and parts[big].shape[0] >= self.min_split:
            flat = self.slots.take(parts[small], axis=0).ravel()
            d, n_total = self.slots.shape[1], self.binner.n_total_bins_
            left_n = _cumulative_counts(flat, d, n_total)
            if parts[small].shape[0] >= self.min_split:
                children[small] = _Node(parts[small], left_n, self.min_leaf)
            # The larger child's counts are parent − smaller, exactly.
            children[big] = _Node(parts[big], node.left_n - left_n, self.min_leaf)
        split = (parts, small, flat, children)
        if node.splits is not None:
            self._keep(node, cut, split)
        return split

    def _keep(self, node: _Node, cut: int, split) -> bool:
        """Hold ``split`` under ``node`` if it fits in ``_MEMO_BYTES``."""
        parts, _, flat, children = split
        arrays = [*parts] if flat is None else [*parts, flat]
        for child in children:
            if child is not None:
                arrays += (child.left_n, child.right_n, child.short)
        size = sum([a.nbytes for a in arrays])
        if self.nbytes + size > _MEMO_BYTES:
            return False
        self.nbytes += size
        for a in arrays:
            a.setflags(write=False)
        for child in children:
            if child is not None:
                child.splits = {}
        node.splits[cut] = split
        return True


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


class DecisionTreeRegressor(BaseEstimator):
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
        memo = _FitMemo(
            X,
            self.max_bins,
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
        )
        self._fit_binned(memo, y)
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

    def _fit_binned(self, memo: _FitMemo, y: np.ndarray):
        """Grow the tree on a fit's shared :class:`_FitMemo`, whose limits
        the caller built from this tree's parameters.

        Ensembles call this once per stage with one memo, so binning and
        every node's row-set state are paid once per ensemble fit rather
        than once per tree. Leaves at ``max_depth`` get value and impurity
        NaN: the caller sets their values (the GBM's Newton step, or
        ``fit``'s means); their impurity stays NaN, and nothing reads
        ``tree_.impurity``.
        """
        max_depth, min_split = memo.max_depth, memo.min_split
        n, d = memo.slots.shape
        n_total, edges = memo.binner.n_total_bins_, memo.binner.edges_
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
            stack.append((0, memo.root, 0, _target_sums(memo.flat, yh, d, n_total)))
        # One errstate switch for the whole build (zero-count divisions are
        # masked by the validity filter; per-node context managers cost more
        # than the arithmetic at this node size).
        with np.errstate(divide="ignore", invalid="ignore"):
            # Depth-first; every node on the stack can split.
            while stack:
                node_id, node, depth, wsum = stack.pop()
                # Cumulative histograms score every cut of every feature at
                # once. Gain is the SSE reduction: the Σy² terms cancel,
                # leaving only squared sums. A cut needs min_leaf rows on
                # each side; that also rules out the cuts at or past a
                # feature's last bin (no rows to their right).
                left_sum = np.add.accumulate(wsum, axis=1)
                total = float(np.add.reduce(wsum[0]))
                right_sum = total - left_sum
                gain = left_sum * left_sum
                gain /= node.left_n
                right_sum *= right_sum
                right_sum /= node.right_n
                gain += right_sum
                gain -= total * total / node.idx.shape[0]
                np.putmask(gain, node.short, -np.inf)
                # Slot f * n_total + b is the cut "code of f ≤ b".
                cut = int(gain.argmax())
                best_gain = gain.item(cut)
                # Also False for a NaN or infinite gain.
                if not 1e-12 < best_gain < np.inf:
                    train_leaves[node.idx] = node_id
                    continue
                best_feat, best_bin = divmod(cut, n_total)
                buffers.feature[node_id] = best_feat
                buffers.threshold[node_id] = float(edges[best_feat][best_bin])
                split = node.splits.get(cut) if node.splits else None
                if split is None:
                    split = memo.split(node, cut, best_feat, depth)
                parts, small, flat, children = split
                # A child that cannot split is a leaf from here on: it is
                # never pushed and its histogram is never built.
                ids, grows = [], []
                for part, child in zip(parts, children):
                    mc = part.shape[0]
                    if depth + 1 < max_depth:
                        value, imp = self._leaf_stats(y[part])
                        # A child the memo gave no node is below min_split.
                        grows.append(child is not None and not imp <= 1e-12)
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
                # a tie), derive the larger one's histogram from the parent's.
                wsum_s = _target_sums(flat, yh[parts[small]], d, n_total)
                if grows[small]:
                    stack.append((ids[small], children[small], depth + 1, wsum_s))
                big = 1 - small
                if grows[big]:
                    stack.append((ids[big], children[big], depth + 1, wsum - wsum_s))

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
