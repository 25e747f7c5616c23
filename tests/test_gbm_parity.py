"""Bit-parity of the histogram tree builder and the packed ensemble router.

``repro.learn.tree`` decides at split time which children can still split
(the rest become leaves without a histogram), holds histogram counts as
float64, and ``_PackedTrees`` predicts every tree of a boosted ensemble in
one level-synchronous routing pass. None of that may move a single bit.

The loop references below are the implementations those replaced, kept
as they were apart from input validation: the per-node builder that
pushed every child and built its histogram, and the per-tree
``raw += lr * tree.predict(X)`` loops of ``_raw_predict``,
``staged_raw_predict``, the warm-start replay and
``GrabitRegressor.predict``. Every test asserts exact equality (never a
tolerance) of predictions, tree arrays and ``_train_leaves_``.
"""

from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest

from repro.censored import GrabitRegressor
from repro.censored.grabit import _tobit_grad_hess
from repro.learn import DecisionTreeClassifier, DecisionTreeRegressor
from repro.learn.gbm import GradientBoostingClassifier, GradientBoostingRegressor
from repro.learn.tree import _LEAF, _Binner, _Tree
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
)

# ---------------------------------------------------------------------------
# Loop references (the pre-packing implementations)
# ---------------------------------------------------------------------------


def _reference_node_histograms(codes, y, idx, offsets, n_total):
    flat = (codes[idx].astype(np.intp) + offsets).ravel()
    d = offsets.shape[1]
    cnt = np.bincount(flat, minlength=d * n_total).reshape(d, n_total)
    wsum = np.bincount(
        flat, weights=np.repeat(y[idx], d), minlength=d * n_total
    ).reshape(d, n_total)
    return cnt, wsum


@dataclass
class _ReferenceBuffers:
    feature: List[int] = field(default_factory=list)
    threshold: List[float] = field(default_factory=list)
    left: List[int] = field(default_factory=list)
    right: List[int] = field(default_factory=list)
    value: List[np.ndarray] = field(default_factory=list)
    n_samples: List[int] = field(default_factory=list)
    impurity: List[float] = field(default_factory=list)

    def add_node(self, value, n, impurity):
        self.feature.append(_LEAF)
        self.threshold.append(np.nan)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        self.n_samples.append(n)
        self.impurity.append(impurity)
        return len(self.feature) - 1

    def finalize(self):
        return _Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.stack(self.value),
            n_samples=np.asarray(self.n_samples, dtype=np.int64),
            impurity=np.asarray(self.impurity, dtype=np.float64),
        )


class _ReferenceBinnedBuilder:
    """The per-node histogram builder: every child is pushed, popped, and
    (for the smaller sibling) scanned, even when it can never split."""

    def _fit_binned(self, codes, y, binner):
        rng, max_depth = self._check_builder_params()
        n, d = codes.shape
        k = self._n_candidate_features(d)
        n_total = binner.n_total_bins_
        offsets = (np.arange(d, dtype=np.intp) * n_total)[None, :]
        cut_exists = np.arange(n_total - 1)[None, :] < (binner.n_bins_[:, None] - 1)
        buffers = _ReferenceBuffers()
        train_leaves = np.zeros(n, dtype=np.int64)

        root_value, root_imp = self._reference_leaf_stats(y)
        root_idx = buffers.add_node(root_value, n, root_imp)
        yh = self._hist_targets(y)
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
                stack, codes, y, yh, binner, buffers, train_leaves,
                cut_exists, offsets, n_total, max_depth, k, d, rng,
            )
        finally:
            np.seterr(**saved_err)

        self.tree_ = buffers.finalize()
        self.n_features_in_ = d
        self._train_leaves_ = train_leaves
        return self

    def _grow_binned_nodes(
        self, stack, codes, y, yh, binner, buffers, train_leaves, cut_exists,
        offsets, n_total, max_depth, k, d, rng,
    ):
        while stack:
            node_id, idx, depth, (cnt, wsum) = stack.pop()
            m = idx.shape[0]
            if (
                depth >= max_depth
                or m < self.min_samples_split
                or buffers.impurity[node_id] <= 1e-12
            ):
                train_leaves[idx] = node_id
                continue
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
            thr = float(binner.edges_[best_feat][best_bin])
            go_left = codes[idx, best_feat] <= best_bin
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            left_value, left_imp = self._reference_leaf_stats(y[left_idx])
            right_value, right_imp = self._reference_leaf_stats(y[right_idx])
            left_id = buffers.add_node(left_value, left_idx.shape[0], left_imp)
            right_id = buffers.add_node(right_value, right_idx.shape[0], right_imp)
            buffers.feature[node_id] = int(best_feat)
            buffers.threshold[node_id] = thr
            buffers.left[node_id] = left_id
            buffers.right[node_id] = right_id
            if left_idx.shape[0] <= right_idx.shape[0]:
                small_idx, small_id, big_idx, big_id = (
                    left_idx, left_id, right_idx, right_id,
                )
            else:
                small_idx, small_id, big_idx, big_id = (
                    right_idx, right_id, left_idx, left_id,
                )
            cnt_s, wsum_s = _reference_node_histograms(
                codes, yh, small_idx, offsets, n_total
            )
            stack.append((small_id, small_idx, depth + 1, (cnt_s, wsum_s)))
            stack.append((big_id, big_idx, depth + 1, (cnt - cnt_s, wsum - wsum_s)))


class _ReferenceRegressorTree(_ReferenceBinnedBuilder, DecisionTreeRegressor):
    def _reference_leaf_stats(self, y):
        s = float(np.add.reduce(y))
        mean = s / y.shape[0]
        d = y - mean
        imp = float(d @ d)
        return np.array([mean]), imp


class _ReferenceClassifierTree(_ReferenceBinnedBuilder, DecisionTreeClassifier):
    def _reference_leaf_stats(self, y):
        n = y.shape[0]
        s = float(np.add.reduce(y))
        p = s / n
        return np.array([p]), float(2.0 * p * (1.0 - p) * n)


class _ReferenceBoosting:
    """Boosting with per-tree predict loops and the per-node builder."""

    def _fit_boosting(self, X, y):
        loss = self._make_loss()
        n = X.shape[0]
        if self.warm_start and getattr(self, "estimators_", None):
            n_new = self.n_estimators - len(self.estimators_)
            rng = self._rng
            raw = np.full(n, self.init_raw_, dtype=np.float64)
            for tree in self.estimators_:
                raw += self.learning_rate * tree.tree_.predict(X)[:, 0]
        else:
            rng = check_random_state(self.random_state)
            self._rng = rng
            self.init_raw_ = loss.init_raw(y)
            raw = np.full(n, self.init_raw_, dtype=np.float64)
            self.estimators_ = []
            self.train_loss_ = []
            n_new = self.n_estimators
        if self.splitter == "hist":
            binner = _Binner(self.max_bins).fit(X)
            codes = binner.transform(X)
        n_sub = max(1, int(round(self.subsample * n)))
        for _ in range(n_new):
            residual = loss.negative_gradient(y, raw)
            if self.subsample < 1.0:
                idx = rng.choice(n, size=n_sub, replace=False)
            else:
                idx = np.arange(n)
            tree = _ReferenceRegressorTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                splitter=self.splitter,
                max_bins=self.max_bins,
                random_state=rng,
            )
            if self.splitter == "hist":
                tree._fit_binned(codes[idx], residual[idx], binner)
            else:
                tree._fit_validated(X[idx], residual[idx])
            leaves_in = tree._train_leaves_
            new_values = tree.tree_.value.copy()
            values, occupied = loss.leaf_values(
                y[idx], raw[idx], residual[idx], leaves_in, tree.tree_.node_count
            )
            new_values[occupied, 0] = values[occupied]
            tree.tree_.value = new_values
            if idx.shape[0] == n:
                raw += self.learning_rate * new_values[leaves_in, 0]
            else:
                raw += self.learning_rate * tree.tree_.predict(X)[:, 0]
            self.estimators_.append(tree)
            self.train_loss_.append(loss.loss(y, raw))
        self.loss_ = loss
        self.n_features_in_ = X.shape[1]
        return self

    def _raw_predict(self, X):
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
        for tree in self.estimators_:
            raw += self.learning_rate * tree.tree_.predict(X)[:, 0]
        return raw

    def staged_raw_predict(self, X):
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
        for tree in self.estimators_:
            raw = raw + self.learning_rate * tree.tree_.predict(X)[:, 0]
            yield raw.copy()


class _ReferenceGBR(_ReferenceBoosting, GradientBoostingRegressor):
    pass


class _ReferenceGBC(_ReferenceBoosting, GradientBoostingClassifier):
    pass


class _ReferenceGrabit(GrabitRegressor):
    def fit(self, X, y, censored):
        rng = check_random_state(self.random_state)
        obs = ~censored
        self.init_raw_ = float(y[obs].mean())
        sigma = max(float(np.std(y[obs] - self.init_raw_)), 1e-6)
        binner = _Binner(self.max_bins).fit(X)
        codes = binner.transform(X)
        raw = np.full(y.shape[0], self.init_raw_)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            grad, hess = _tobit_grad_hess(y, raw, censored, sigma)
            tree = _ReferenceRegressorTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                splitter="hist",
                max_bins=self.max_bins,
                random_state=rng,
            )
            tree._fit_binned(codes, -grad, binner)
            leaves = tree._train_leaves_
            n_nodes = tree.tree_.node_count
            gsum = np.bincount(leaves, weights=grad, minlength=n_nodes)
            hsum = np.bincount(leaves, weights=hess, minlength=n_nodes)
            values = tree.tree_.value.copy()
            occupied = np.bincount(leaves, minlength=n_nodes) > 0
            values[occupied, 0] = -gsum[occupied] / hsum[occupied]
            tree.tree_.value = values
            raw += self.learning_rate * values[leaves, 0]
            self.estimators_.append(tree)
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X):
        X = check_array(X)
        raw = np.full(X.shape[0], self.init_raw_)
        for tree in self.estimators_:
            raw += self.learning_rate * tree.tree_.predict(X)[:, 0]
        return raw


# ---------------------------------------------------------------------------
# Data and comparisons
# ---------------------------------------------------------------------------


def _data(n=160, seed=0):
    """Continuous, low-cardinality and constant columns, duplicate rows,
    and a large-offset target."""
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


def _assert_same_trees(ref_estimators, new_estimators):
    assert len(ref_estimators) == len(new_estimators)
    for ref, new in zip(ref_estimators, new_estimators):
        for name in ("feature", "threshold", "left", "right", "value", "n_samples"):
            a, b = getattr(ref.tree_, name), getattr(new.tree_, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(ref._train_leaves_, new._train_leaves_)


def _assert_same_predictions(ref_fn, new_fn, Xq):
    # n = 1 is the summation-order guard: a reduction over the tree axis
    # rounds differently from the tree-ordered loop for a single row.
    for rows in (Xq[:1], Xq[:2], Xq):
        a, b = ref_fn(rows), new_fn(rows)
        assert a.dtype == b.dtype and np.array_equal(a, b)


GRID = [
    (depth, leaf, split)
    for depth in range(1, 6)
    for leaf in (1, 5)
    for split in (2, 20)
]


@pytest.mark.parametrize("max_depth,min_samples_leaf,min_samples_split", GRID)
def test_regressor_matches_reference(max_depth, min_samples_leaf, min_samples_split):
    X, y, _ = _data()
    kw = dict(
        n_estimators=12,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        min_samples_split=min_samples_split,
        random_state=3,
    )
    ref, new = _ReferenceGBR(**kw).fit(X, y), GradientBoostingRegressor(**kw).fit(X, y)
    _assert_same_trees(ref.estimators_, new.estimators_)
    _assert_same_predictions(ref.predict, new.predict, _queries())


@pytest.mark.parametrize("max_depth", [2, 3, 5])
def test_regressor_subsample_and_warm_start_match_reference(max_depth):
    X, y, _ = _data()
    kw = dict(
        n_estimators=10,
        max_depth=max_depth,
        subsample=0.8,
        max_features=0.5,
        warm_start=True,
        random_state=5,
    )
    ref, new = _ReferenceGBR(**kw).fit(X, y), GradientBoostingRegressor(**kw).fit(X, y)
    # Extend both on a different (shorter) training set: the replay of the
    # kept trees goes through the packed router.
    for m in (ref, new):
        m.set_params(n_estimators=18)
        m.fit(X[:120], y[:120])
    _assert_same_trees(ref.estimators_, new.estimators_)
    assert ref.train_loss_ == new.train_loss_
    Xq = _queries()
    _assert_same_predictions(ref.predict, new.predict, Xq)
    for a, b in zip(ref.staged_raw_predict(Xq[:2]), new.staged_raw_predict(Xq[:2])):
        assert np.array_equal(a, b)


def test_exact_splitter_ensemble_matches_reference():
    X, y, _ = _data(n=90)
    kw = dict(n_estimators=8, max_depth=3, splitter="exact", random_state=0)
    ref, new = _ReferenceGBR(**kw).fit(X, y), GradientBoostingRegressor(**kw).fit(X, y)
    _assert_same_trees(ref.estimators_, new.estimators_)
    _assert_same_predictions(ref.predict, new.predict, _queries())


@pytest.mark.parametrize("max_depth,min_samples_leaf,min_samples_split", GRID[::3])
def test_classifier_matches_reference(max_depth, min_samples_leaf, min_samples_split):
    X, _, labels = _data()
    kw = dict(
        n_estimators=12,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        min_samples_split=min_samples_split,
        subsample=0.8,
        random_state=2,
    )
    ref = _ReferenceGBC(**kw).fit(X, labels)
    new = GradientBoostingClassifier(**kw).fit(X, labels)
    _assert_same_trees(ref.estimators_, new.estimators_)
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
    assert list(new.staged_raw_predict(Xq)) == []


@pytest.mark.parametrize("max_depth", [1, 3, 5])
def test_grabit_matches_reference(max_depth):
    X, y, _ = _data()
    censored = np.random.default_rng(4).random(y.shape[0]) < 0.3
    kw = dict(n_estimators=10, max_depth=max_depth, min_samples_leaf=5, random_state=1)
    ref = _ReferenceGrabit(**kw).fit(X, y, censored)
    new = GrabitRegressor(**kw).fit(X, y, censored=censored)
    _assert_same_trees(ref.estimators_, new.estimators_)
    _assert_same_predictions(ref.predict, new.predict, _queries())


def test_all_constant_X_matches_reference():
    X = np.full((30, 4), 2.0)
    y = np.random.default_rng(0).normal(size=30)
    ref = _ReferenceGBR(n_estimators=4).fit(X, y)
    new = GradientBoostingRegressor(n_estimators=4).fit(X, y)
    _assert_same_trees(ref.estimators_, new.estimators_)
    assert all(t.tree_.node_count == 1 for t in new.estimators_)
    _assert_same_predictions(ref.predict, new.predict, _queries()[:, :4])


@pytest.mark.parametrize(
    "ref_cls,new_cls", [
        (_ReferenceRegressorTree, DecisionTreeRegressor),
        (_ReferenceClassifierTree, DecisionTreeClassifier),
    ],
)
@pytest.mark.parametrize("max_depth", [1, 4, None])
def test_single_hist_tree_matches_reference(ref_cls, new_cls, max_depth):
    X, y, labels = _data()
    target = y if new_cls is DecisionTreeRegressor else labels
    kw = dict(splitter="hist", max_depth=max_depth, min_samples_leaf=3)
    ref = ref_cls(**kw).fit(X, target)
    new = new_cls(**kw).fit(X, target)
    _assert_same_trees([ref], [new])
    _assert_same_predictions(ref.predict, new.predict, _queries())
