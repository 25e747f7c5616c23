"""Bit-parity of the tree builder, the boosting stage loop and the packed
ensemble router.

``repro.learn.tree`` decides at split time which children can still split
(the rest become leaves without a histogram), holds histogram counts as
float64, and ``_PackedTrees`` predicts every tree of a boosted ensemble in
one level-synchronous routing pass. ``repro.learn.gbm`` fits the
regressor, the classifier and Grabit through one stage loop whose leaves
all take the Newton step Σresidual / Σhessian. None of that may move a
single bit.

The loop references below are self-contained copies of the
implementations those replaced, kept as they were apart from input
validation and the options that are gone: the per-node builder that
pushed every child and built its histogram, its per-tree router, the
per-loss leaf estimates (least-squares mean, binomial Newton step,
Grabit's −Σg/Σh), and the per-tree ``raw += lr * tree.predict(X)`` loops
of ``_raw_predict``, ``staged_raw_predict``, the warm-start replay and
``GrabitRegressor.predict``. Only tests use the per-stage view, so the
shipping side of ``staged_raw_predict`` is the helper of that name below.
The references share only the binner and the leaf marker of the tree
layout with the shipping code. Every test asserts exact equality (never a
tolerance) of predictions, tree arrays and each stage's training leaves,
which ``fit_recording_leaves`` reads from the stage loop's builder.
"""

from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest
from scipy.stats import norm

from repro.censored import GrabitRegressor
from repro.learn import gbm
from repro.learn.gbm import GradientBoostingClassifier, GradientBoostingRegressor
from repro.learn.tree import _LEAF, _Binner, _FitMemo, _grow_tree

# ---------------------------------------------------------------------------
# Loop references (the pre-packing, per-loss implementations)
# ---------------------------------------------------------------------------

#: The shipping stage shrinkage and growth limits, as literals.
LEARNING_RATE = 0.1
MIN_SAMPLES_SPLIT = 2
MIN_SAMPLES_LEAF = 1


def _reference_node_histograms(codes, y, idx, offsets, n_total):
    flat = (codes[idx].astype(np.intp) + offsets).ravel()
    d = offsets.shape[1]
    cnt = np.bincount(flat, minlength=d * n_total).reshape(d, n_total)
    wsum = np.bincount(
        flat, weights=np.repeat(y[idx], d), minlength=d * n_total
    ).reshape(d, n_total)
    return cnt, wsum


@dataclass
class _ReferenceTree:
    """Fitted node arrays with the per-tree router they had."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X):
        """Leaf index of each row, routed level by level."""
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

    def predict(self, X):
        return self.value[self.apply(X)]


@dataclass
class _ReferenceBuffers:
    feature: List[int] = field(default_factory=list)
    threshold: List[float] = field(default_factory=list)
    left: List[int] = field(default_factory=list)
    right: List[int] = field(default_factory=list)
    value: List[float] = field(default_factory=list)
    impurity: List[float] = field(default_factory=list)

    def add_node(self, value, impurity):
        self.feature.append(_LEAF)
        self.threshold.append(np.nan)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        self.impurity.append(impurity)
        return len(self.feature) - 1

    def finalize(self):
        return _ReferenceTree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=np.float64),
        )


def _reference_leaf_stats(y):
    s = float(np.add.reduce(y))
    mean = s / y.shape[0]
    d = y - mean
    return mean, float(d @ d)


class _ReferenceRegressorTree:
    """The per-node histogram builder: every child is pushed, popped, and
    (for the smaller sibling) scanned, even when it can never split."""

    def __init__(self, max_depth, max_bins=256):
        self.max_depth = max_depth
        self.max_bins = max_bins

    def fit(self, X, y):
        binner = _Binner(self.max_bins).fit(X)
        return self._fit_binned(binner.transform(X), y, binner)

    def _fit_binned(self, codes, y, binner):
        n, d = codes.shape
        n_total = binner.n_total_bins_
        offsets = (np.arange(d, dtype=np.intp) * n_total)[None, :]
        cut_exists = np.arange(n_total - 1)[None, :] < (binner.n_bins_[:, None] - 1)
        buffers = _ReferenceBuffers()
        train_leaves = np.zeros(n, dtype=np.int64)

        root_idx = buffers.add_node(*_reference_leaf_stats(y))
        yh = y - np.add.reduce(y) / y.shape[0]
        if n_total > 1:
            root_hist = _reference_node_histograms(
                codes, yh, np.arange(n), offsets, n_total
            )
            stack = [(root_idx, np.arange(n), 0, root_hist)]
        else:
            stack = []
        saved_err = np.seterr(divide="ignore", invalid="ignore")
        try:
            self._grow_binned_nodes(
                stack,
                codes,
                y,
                yh,
                binner,
                buffers,
                train_leaves,
                cut_exists,
                offsets,
                n_total,
            )
        finally:
            np.seterr(**saved_err)

        self.tree_ = buffers.finalize()
        self._train_leaves_ = train_leaves
        return self

    def _grow_binned_nodes(
        self,
        stack,
        codes,
        y,
        yh,
        binner,
        buffers,
        train_leaves,
        cut_exists,
        offsets,
        n_total,
    ):
        while stack:
            node_id, idx, depth, (cnt, wsum) = stack.pop()
            m = idx.shape[0]
            if (
                depth >= self.max_depth
                or m < MIN_SAMPLES_SPLIT
                or buffers.impurity[node_id] <= 1e-12
            ):
                train_leaves[idx] = node_id
                continue
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
                & (left_n >= MIN_SAMPLES_LEAF)
                & (m - left_n >= MIN_SAMPLES_LEAF)
            )
            gain[~valid] = -np.inf
            flat_best = int(np.argmax(gain))
            best_feat, best_bin = divmod(flat_best, n_total - 1)
            best_gain = gain[best_feat, best_bin]
            if not np.isfinite(best_gain) or best_gain <= 1e-12:
                train_leaves[idx] = node_id
                continue
            thr = float(binner.edges_[best_feat][best_bin])
            go_left = codes[idx, best_feat] <= best_bin
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            left_id = buffers.add_node(*_reference_leaf_stats(y[left_idx]))
            right_id = buffers.add_node(*_reference_leaf_stats(y[right_idx]))
            buffers.feature[node_id] = int(best_feat)
            buffers.threshold[node_id] = thr
            buffers.left[node_id] = left_id
            buffers.right[node_id] = right_id
            if left_idx.shape[0] <= right_idx.shape[0]:
                small_idx, small_id, big_idx, big_id = (
                    left_idx,
                    left_id,
                    right_idx,
                    right_id,
                )
            else:
                small_idx, small_id, big_idx, big_id = (
                    right_idx,
                    right_id,
                    left_idx,
                    left_id,
                )
            cnt_s, wsum_s = _reference_node_histograms(
                codes, yh, small_idx, offsets, n_total
            )
            stack.append((small_id, small_idx, depth + 1, (cnt_s, wsum_s)))
            stack.append((big_id, big_idx, depth + 1, (cnt - cnt_s, wsum - wsum_s)))


def _reference_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _ReferenceLeastSquares:
    def init_raw(self, y):
        return float(np.mean(y))

    def negative_gradient(self, y, raw):
        return y - raw

    def leaf_values(self, y, raw, residual, leaves, n_nodes):
        counts = np.bincount(leaves, minlength=n_nodes)
        sums = np.bincount(leaves, weights=residual, minlength=n_nodes)
        occupied = counts > 0
        values = np.divide(sums, counts, out=np.zeros(n_nodes), where=occupied)
        return values, occupied


class _ReferenceBinomial:
    def init_raw(self, y):
        p = np.clip(np.mean(y), 1e-6, 1 - 1e-6)
        return float(np.log(p / (1.0 - p)))

    def negative_gradient(self, y, raw):
        return y - _reference_sigmoid(raw)

    def leaf_values(self, y, raw, residual, leaves, n_nodes):
        p = _reference_sigmoid(raw)
        counts = np.bincount(leaves, minlength=n_nodes)
        nums = np.bincount(leaves, weights=residual, minlength=n_nodes)
        denoms = np.bincount(leaves, weights=p * (1.0 - p), minlength=n_nodes)
        occupied = counts > 0
        values = np.divide(nums, denoms, out=np.zeros(n_nodes), where=denoms >= 1e-12)
        return values, occupied


class _ReferenceBoosting:
    """Boosting with per-loss leaf estimates, per-tree predict loops and the
    per-node builder."""

    def __init__(self, n_estimators=100, max_depth=3, max_bins=256, warm_start=False):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_bins = max_bins
        self.warm_start = warm_start

    def set_params(self, **params):
        for key, value in params.items():
            setattr(self, key, value)
        return self

    def _fit_boosting(self, X, y, loss):
        n = X.shape[0]
        if self.warm_start and getattr(self, "estimators_", None):
            n_new = self.n_estimators - len(self.estimators_)
            raw = np.full(n, self.init_raw_, dtype=np.float64)
            for tree in self.estimators_:
                raw += LEARNING_RATE * tree.tree_.predict(X)
        else:
            self.init_raw_ = loss.init_raw(y)
            raw = np.full(n, self.init_raw_, dtype=np.float64)
            self.estimators_ = []
            n_new = self.n_estimators
        binner = _Binner(self.max_bins).fit(X)
        codes = binner.transform(X)
        for _ in range(n_new):
            residual = loss.negative_gradient(y, raw)
            tree = _ReferenceRegressorTree(self.max_depth, self.max_bins)
            tree._fit_binned(codes, residual, binner)
            leaves_in = tree._train_leaves_
            new_values = tree.tree_.value.copy()
            values, occupied = loss.leaf_values(
                y, raw, residual, leaves_in, new_values.shape[0]
            )
            new_values[occupied] = values[occupied]
            tree.tree_.value = new_values
            raw += LEARNING_RATE * new_values[leaves_in]
            self.estimators_.append(tree)
        return self

    def _raw_predict(self, X):
        raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
        for tree in self.estimators_:
            raw += LEARNING_RATE * tree.tree_.predict(X)
        return raw

    def staged_raw_predict(self, X):
        raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
        for tree in self.estimators_:
            raw = raw + LEARNING_RATE * tree.tree_.predict(X)
            yield raw.copy()


class _ReferenceGBR(_ReferenceBoosting):
    def fit(self, X, y):
        return self._fit_boosting(X, y, _ReferenceLeastSquares())

    def predict(self, X):
        return self._raw_predict(X)


class _ReferenceGBC(_ReferenceBoosting):
    def fit(self, X, y):
        self.classes_ = np.unique(y)
        if self.classes_.shape[0] == 1:
            self.init_raw_ = np.inf if self.classes_[0] == 1 else -np.inf
            self.estimators_ = []
            self._single_class_ = self.classes_[0]
            return self
        self._single_class_ = None
        y01 = (y == self.classes_[-1]).astype(np.float64)
        return self._fit_boosting(X, y01, _ReferenceBinomial())

    def decision_function(self, X):
        if self._single_class_ is not None:
            fill = np.inf if self._single_class_ == self.classes_[-1] else -np.inf
            return np.full(X.shape[0], fill)
        return self._raw_predict(X)

    def predict_proba(self, X):
        if self._single_class_ is not None:
            return np.ones((X.shape[0], 1))
        p1 = _reference_sigmoid(self._raw_predict(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X):
        if self._single_class_ is not None:
            return np.full(X.shape[0], self._single_class_)
        proba = self.predict_proba(X)
        return self.classes_[(proba[:, 1] >= 0.5).astype(int)]


def _reference_tobit_grad_hess(y, raw, censored, sigma):
    z = (y - raw) / sigma
    zc = np.clip(z, -30.0, 30.0)
    with np.errstate(divide="ignore", over="ignore"):
        hazard = np.exp(norm.logpdf(zc) - norm.logsf(zc))
    hazard = np.where(z > 30.0, z + 1.0 / np.maximum(z, 1.0), hazard)
    grad = np.where(censored, -hazard / sigma, -(y - raw) / sigma**2)
    hess = np.where(censored, hazard * (hazard - z) / sigma**2, 1.0 / sigma**2)
    return grad, np.maximum(hess, 1e-12)


class _ReferenceGrabit:
    def __init__(self, n_estimators=60, max_depth=3, max_bins=256):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_bins = max_bins

    def fit(self, X, y, censored):
        obs = ~censored
        self.init_raw_ = float(y[obs].mean())
        sigma = max(float(np.std(y[obs] - self.init_raw_)), 1e-6)
        binner = _Binner(self.max_bins).fit(X)
        codes = binner.transform(X)
        raw = np.full(y.shape[0], self.init_raw_)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            grad, hess = _reference_tobit_grad_hess(y, raw, censored, sigma)
            tree = _ReferenceRegressorTree(self.max_depth, self.max_bins)
            tree._fit_binned(codes, -grad, binner)
            leaves = tree._train_leaves_
            values = tree.tree_.value.copy()
            n_nodes = values.shape[0]
            gsum = np.bincount(leaves, weights=grad, minlength=n_nodes)
            hsum = np.bincount(leaves, weights=hess, minlength=n_nodes)
            occupied = np.bincount(leaves, minlength=n_nodes) > 0
            values[occupied] = -gsum[occupied] / hsum[occupied]
            tree.tree_.value = values
            raw += LEARNING_RATE * values[leaves]
            self.estimators_.append(tree)
        return self

    def predict(self, X):
        raw = np.full(X.shape[0], self.init_raw_)
        for tree in self.estimators_:
            raw += LEARNING_RATE * tree.tree_.predict(X)
        return raw


def _grabit(**stage):
    """A ``GrabitRegressor`` with its class-level stage settings replaced, so
    its loss is checked against the reference under other tree limits too."""
    return type("Grabit", (GrabitRegressor,), stage)()


def staged_raw_predict(model, X):
    """Yield a fitted boosted model's raw predictions after each stage.

    Only tests need the per-stage view, so it is built here from the
    packed router's per-tree leaf values, with the model's own input check.
    """
    X = model._check_predict_input(X)
    raw = np.full(X.shape[0], model.init_raw_, dtype=np.float64)
    for values in model._packed.leaf_values(X):
        raw += gbm._LEARNING_RATE * values
        yield raw.copy()


def fit_recording_leaves(model, *args, **kwargs):
    """Fit ``model`` and return the training leaves of each stage it grew,
    in stage order, as the stage loop's builder returned them."""
    leaves = []

    def recording(memo, y):
        tree, rows = _grow_tree(memo, y)
        leaves.append(rows)
        return tree, rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbm, "_grow_tree", recording)
        model.fit(*args, **kwargs)
    return leaves


# ---------------------------------------------------------------------------
# Data and comparisons
# ---------------------------------------------------------------------------


def _data(n=160, seed=0):
    """Continuous, low-cardinality and constant columns, duplicate rows,
    and a large-offset target. The continuous columns hold 129 distinct
    values, the low-cardinality one 4."""
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, 6))
    X[:, 2] = 3.5
    X[:, 4] = gen.integers(0, 4, size=n)
    X[: n // 5] = X[0]
    y = 1e3 + 4.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + X[:, 4] + gen.normal(0, 0.2, n)
    labels = (X[:, 0] + 0.5 * X[:, 3] + gen.normal(0, 0.5, n) > 0).astype(int)
    return X, y, labels


def _queries(seed=1):
    return np.random.default_rng(seed).normal(size=(9, 6))


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _assert_same_trees(ref_estimators, new_estimators, new_leaves):
    """Reference trees (``tree_`` and ``_train_leaves_``) against shipping
    trees and the training leaves their builder returned."""
    assert len(ref_estimators) == len(new_estimators) == len(new_leaves)
    for ref, new, leaves in zip(ref_estimators, new_estimators, new_leaves):
        for name in TREE_ARRAYS:
            a, b = getattr(ref.tree_, name), getattr(new, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(ref._train_leaves_, leaves)


def _assert_same_predictions(ref_fn, new_fn, Xq):
    # n = 1 is the summation-order guard: a reduction over the tree axis
    # rounds differently from the tree-ordered loop for a single row.
    for rows in (Xq[:1], Xq[:2], Xq):
        a, b = ref_fn(rows), new_fn(rows)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _reference_tree(X, y, max_depth, max_bins):
    """One reference tree on ``y`` with least-squares (mean) leaves."""
    tree = _ReferenceRegressorTree(max_depth, max_bins).fit(X, y)
    n_nodes = tree.tree_.value.shape[0]
    values, occupied = _ReferenceLeastSquares().leaf_values(
        y, None, y, tree._train_leaves_, n_nodes
    )
    tree.tree_.value[occupied] = values[occupied]
    return tree


def builder_tree(X, y, max_depth, max_bins=256):
    """One builder tree on ``y`` with Newton leaves at unit hessian (the
    leaf means), its training leaves, and its predict through the packed
    router."""
    tree, leaves = _grow_tree(_FitMemo(X, max_bins, max_depth), y)
    gbm._newton_step(tree, leaves, y, np.ones_like(y))
    packed = gbm._PackedTrees([tree])
    return tree, leaves, lambda X: packed.leaf_values(X)[0]


#: Bin budgets below the 129 distinct values of ``_data``'s continuous
#: columns (quantile cuts) and above them (midpoint cuts).
GRID = [(depth, bins) for depth in range(1, 6) for bins in (3, 16, 64, 256)]


@pytest.mark.parametrize("max_depth,max_bins", GRID)
def test_regressor_matches_reference(max_depth, max_bins):
    X, y, _ = _data()
    kw = dict(n_estimators=12, max_depth=max_depth, max_bins=max_bins)
    ref, new = _ReferenceGBR(**kw).fit(X, y), GradientBoostingRegressor(**kw)
    leaves = fit_recording_leaves(new, X, y)
    _assert_same_trees(ref.estimators_, new.estimators_, leaves)
    _assert_same_predictions(ref.predict, new.predict, _queries())


@pytest.mark.parametrize("max_depth", [2, 3, 5])
def test_regressor_warm_start_matches_reference(max_depth):
    X, y, _ = _data()
    kw = dict(n_estimators=10, max_depth=max_depth, warm_start=True)
    ref, new = _ReferenceGBR(**kw).fit(X, y), GradientBoostingRegressor(**kw)
    leaves = fit_recording_leaves(new, X, y)
    # Extend both on a different (shorter) training set: the replay of the
    # kept trees goes through the packed router.
    for m in (ref, new):
        m.set_params(n_estimators=18)
    ref.fit(X[:120], y[:120])
    leaves += fit_recording_leaves(new, X[:120], y[:120])
    _assert_same_trees(ref.estimators_, new.estimators_, leaves)
    Xq = _queries()
    _assert_same_predictions(ref.predict, new.predict, Xq)
    for a, b in zip(ref.staged_raw_predict(Xq[:2]), staged_raw_predict(new, Xq[:2])):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("max_depth,max_bins", GRID[::3])
def test_classifier_matches_reference(max_depth, max_bins):
    X, _, labels = _data()
    kw = dict(n_estimators=12, max_depth=max_depth, max_bins=max_bins)
    ref = _ReferenceGBC(**kw).fit(X, labels)
    new = GradientBoostingClassifier(**kw)
    leaves = fit_recording_leaves(new, X, labels)
    _assert_same_trees(ref.estimators_, new.estimators_, leaves)
    Xq = _queries()
    _assert_same_predictions(ref.decision_function, new.decision_function, Xq)
    _assert_same_predictions(ref.predict_proba, new.predict_proba, Xq)
    _assert_same_predictions(ref.predict, new.predict, Xq)


def test_single_class_classifier_matches_reference():
    X, _, _ = _data(n=40)
    labels = np.ones(40, dtype=int)
    ref = _ReferenceGBC(n_estimators=5).fit(X, labels)
    new = GradientBoostingClassifier(n_estimators=5).fit(X, labels)
    Xq = _queries()
    _assert_same_predictions(ref.predict_proba, new.predict_proba, Xq)
    _assert_same_predictions(ref.decision_function, new.decision_function, Xq)
    assert list(staged_raw_predict(new, Xq)) == []


@pytest.mark.parametrize("max_depth", [1, 3, 5])
def test_grabit_matches_reference(max_depth):
    X, y, _ = _data()
    censored = np.random.default_rng(4).random(y.shape[0]) < 0.3
    kw = dict(n_estimators=10, max_depth=max_depth, max_bins=16)
    ref = _ReferenceGrabit(**kw).fit(X, y, censored)
    new = _grabit(**kw)
    leaves = fit_recording_leaves(new, X, y, censored=censored)
    _assert_same_trees(ref.estimators_, new.estimators_, leaves)
    _assert_same_predictions(ref.predict, new.predict, _queries())


def test_all_constant_X_matches_reference():
    X = np.full((30, 4), 2.0)
    y = np.random.default_rng(0).normal(size=30)
    ref = _ReferenceGBR(n_estimators=4).fit(X, y)
    new = GradientBoostingRegressor(n_estimators=4)
    leaves = fit_recording_leaves(new, X, y)
    _assert_same_trees(ref.estimators_, new.estimators_, leaves)
    assert all(t.node_count == 1 for t in new.estimators_)
    _assert_same_predictions(ref.predict, new.predict, _queries()[:, :4])


@pytest.mark.parametrize("max_depth", [1, 4, 12])
def test_single_builder_tree_matches_reference(max_depth):
    """One tree on the raw large-offset target, not a centered residual."""
    X, y, _ = _data()
    ref = _reference_tree(X, y, max_depth, 256)
    new, leaves, predict = builder_tree(X, y, max_depth)
    _assert_same_trees([ref], [new], [leaves])
    _assert_same_predictions(ref.tree_.predict, predict, _queries())


# ---------------------------------------------------------------------------
# Randomized differential test
# ---------------------------------------------------------------------------

#: Seeded problems per model; the whole test stays well under 10 s.
FUZZ_CASES = 300


def _fuzz_case(seed):
    """One random problem the fixed ``GRID`` does not cover: 2–120 rows,
    1–9 features rounded to 0–3 decimals (so bins tie), plain, zero-heavy
    or 1e6-offset targets, and a random depth and bin budget."""
    gen = np.random.default_rng(seed)
    n, d = int(gen.integers(2, 121)), int(gen.integers(1, 10))
    X = np.round(10.0 * gen.normal(size=(n, d)), int(gen.integers(0, 4)))
    y = gen.normal(size=n)
    shape = gen.integers(3)
    if shape == 1:
        y[gen.random(n) < 0.7] = 0.0
    elif shape == 2:
        y += 1e6
    kw = dict(
        max_depth=[1, 2, 3, 4, 6, 10][gen.integers(6)],
        max_bins=int(gen.choice([8, 256])),
    )
    censored = gen.random(n) < 0.3
    censored[0] = False
    return X, y, censored, kw


def _fit_both(model, X, y, censored, kw):
    """(reference trees, shipping trees, shipping training leaves, reference
    predict, shipping predict) of one model on one fuzz case."""
    if model == "tree":
        ref = _reference_tree(X, y, kw["max_depth"], kw["max_bins"])
        new, leaves, predict = builder_tree(X, y, kw["max_depth"], kw["max_bins"])
        return [ref], [new], [leaves], ref.tree_.predict, predict
    if model == "gbr":
        kw = dict(kw, n_estimators=6)
        ref, new = _ReferenceGBR(**kw).fit(X, y), GradientBoostingRegressor(**kw)
        leaves = fit_recording_leaves(new, X, y)
    else:
        kw = dict(kw, n_estimators=4)
        ref, new = _ReferenceGrabit(**kw).fit(X, y, censored), _grabit(**kw)
        leaves = fit_recording_leaves(new, X, y, censored=censored)
    return ref.estimators_, new.estimators_, leaves, ref.predict, new.predict


@pytest.mark.parametrize("model", ["tree", "gbr", "grabit"])
def test_random_problems_match_reference(model):
    """Exact equality with the loop references on seeded random problems:
    ties, near-empty nodes and rounding residues that the 160-row ``GRID``
    never reaches."""
    for seed in range(FUZZ_CASES):
        X, y, censored, kw = _fuzz_case(seed)
        ref, new, leaves, ref_predict, new_predict = _fit_both(
            model, X, y, censored, kw
        )
        try:
            _assert_same_trees(ref, new, leaves)
            _assert_same_predictions(ref_predict, new_predict, X)
        except AssertionError as err:
            raise AssertionError(f"fuzz case {seed}: {err}") from err
