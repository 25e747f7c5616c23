"""Gradient boosting on CART trees with pluggable losses.

``GradientBoostingRegressor`` with the default least-squares loss is the
paper's GBTR predictor (the supervised baseline and NURD's latency model
``h_t``); the Tobit loss in :mod:`repro.censored.grabit` plugs into the same
stage loop to form Grabit. ``GradientBoostingClassifier`` (binomial
deviance) backs XGBOD and is available as an alternative propensity model.

Each boosting stage fits a regression tree to the loss's residual (its
negative gradient) and then re-estimates every leaf with one Newton step of
the true loss, Σresidual / Σhessian over the leaf's samples (the classic
Friedman/TreeBoost update), so non-quadratic losses converge properly. One
stage loop, :meth:`_BaseGradientBoosting._boost`, serves every model here
and Grabit; a loss only supplies its initial raw score and its per-sample
(residual, hessian) pair.

Every model shrinks each stage by ``_LEARNING_RATE`` = 0.1, and its trees
grow with the builder's fixed ``_MIN_SAMPLES_SPLIT`` and
``_MIN_SAMPLES_LEAF``; only the tree count, depth, bin budget and warm
start are settable. Features are quantized into ≤255 bins **once per
ensemble fit** and every stage's tree grows on the shared binned matrix
(the histogram split search of :mod:`repro.learn.tree` without per-tree
binning cost). The same per-fit memo (``tree._FitMemo``) also carries the
node state that does not depend on the residual: stages keep re-taking the
cuts near the root, so their partitions and count histograms are computed
once per fit. Integer parameters are validated once per fit, before any
binning. Every stage sees every row and every feature, so fitting draws no
random numbers.
``warm_start=True`` makes ``fit`` extend an already-fitted ensemble up to
the current ``n_estimators`` instead of restarting from scratch: existing
trees are kept, raw predictions are re-accumulated on the new data, and
only the missing stages are trained. NURD exploits this to reuse each
checkpoint's ensemble at the next checkpoint.

Every prediction, the warm-start replay included, goes through one packed
router (``tree._PackedTrees``) built once per fit from ``estimators_``: all
trees are routed at once, one pass per depth level.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator
from repro.learn.tree import (
    _LEAF,
    _MAX_HIST_BINS,
    _FitMemo,
    _grow_tree,
    _PackedTrees,
    _Tree,
)
from repro.utils.validation import (
    check_array,
    check_bool,
    check_is_fitted,
    check_n_features,
    check_positive_int,
    check_X_y,
)


#: Shrinkage of every boosting stage.
_LEARNING_RATE = 0.1


class LossFunction:
    """Interface for boosting losses.

    ``raw`` denotes the additive model output before any link function.
    """

    def init_raw(self, y: np.ndarray) -> float:
        """Constant raw prediction the first stage starts from."""
        raise NotImplementedError

    def gradients(self, y: np.ndarray, raw: np.ndarray):
        """Per-sample ``(residual, hessian)``: the negative gradient the next
        tree is fitted to, and the second derivative its Newton leaf step
        divides by."""
        raise NotImplementedError


class LeastSquaresLoss(LossFunction):
    """L(y, f) = (y - f)^2 / 2. Newton leaf value is the mean residual."""

    def init_raw(self, y):
        return float(np.mean(y))

    def gradients(self, y, raw):
        return y - raw, np.ones(y.shape[0])


class BinomialDevianceLoss(LossFunction):
    """Logistic loss for y in {0, 1}; raw is the log-odds."""

    def init_raw(self, y):
        p = np.clip(np.mean(y), 1e-6, 1 - 1e-6)
        return float(np.log(p / (1.0 - p)))

    def gradients(self, y, raw):
        p = _sigmoid(raw)
        return y - p, p * (1.0 - p)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _newton_step(tree: _Tree, leaves, residual, hessian) -> np.ndarray:
    """Set every leaf of a fitted stage tree to Σresidual / Σhessian over
    its training samples (0 where Σhessian < 1e-12), in one bincount pass
    over ``leaves``, the builder's leaf of every sample; internal nodes
    keep their mean. Returns each training sample's new leaf value."""
    n_nodes = tree.node_count
    rsum = np.bincount(leaves, weights=residual, minlength=n_nodes)
    hsum = np.bincount(leaves, weights=hessian, minlength=n_nodes)
    step = np.divide(rsum, hsum, out=np.zeros(n_nodes), where=hsum >= 1e-12)
    is_leaf = tree.feature == _LEAF
    tree.value[is_leaf] = step[is_leaf]
    return tree.value[leaves]


class _BaseGradientBoosting(BaseEstimator):
    """The boosting stage loop and packed prediction shared by every model
    built on it. Subclasses hold ``n_estimators``, ``max_depth`` and
    ``max_bins``; ``estimators_`` holds the fitted stage trees."""

    def _boost(self, X, y, loss: LossFunction, warm=False):
        """Fit ``self.estimators_`` to ``(X, y)`` under ``loss``.

        With ``warm`` the fitted trees are kept, replayed on ``X``, and only
        the stages missing up to ``n_estimators`` are trained.
        """
        check_positive_int(self.n_estimators, "n_estimators")
        check_positive_int(self.max_depth, "max_depth")
        # One memo per fit: it bins X once (checking max_bins) and keeps
        # the residual-free node state every stage reuses.
        memo = _FitMemo(X, self.max_bins, self.max_depth)
        if warm:
            if X.shape[1] != self.n_features_in_:
                raise ValueError(
                    f"warm_start refit got {X.shape[1]} features; ensemble "
                    f"was fitted with {self.n_features_in_}."
                )
            n_new = self.n_estimators - len(self.estimators_)
            if n_new < 0:
                raise ValueError(
                    f"warm_start requires n_estimators "
                    f"({self.n_estimators}) >= the {len(self.estimators_)} "
                    "trees already fitted."
                )
            raw = self._packed.raw(X, self.init_raw_, _LEARNING_RATE)
        else:
            self.init_raw_ = loss.init_raw(y)
            raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
            self.estimators_ = []
            n_new = self.n_estimators
        for _ in range(n_new):
            residual, hessian = loss.gradients(y, raw)
            tree, leaves = _grow_tree(memo, residual)
            raw += _LEARNING_RATE * _newton_step(tree, leaves, residual, hessian)
            self.estimators_.append(tree)
        self._packed = _PackedTrees(self.estimators_)
        self.n_features_in_ = X.shape[1]
        return self

    def _check_predict_input(self, X) -> np.ndarray:
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
        return X

    def _raw_predict(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        return self._packed.raw(X, self.init_raw_, _LEARNING_RATE)


class _GradientBoosting(_BaseGradientBoosting):
    """Constructor and warm-start ``fit`` of the two public GBM models."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 3,
        max_bins: int = _MAX_HIST_BINS,
        warm_start: bool = False,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_bins = max_bins
        self.warm_start = warm_start

    def _fit_boosting(self, X, y, loss: LossFunction):
        check_bool(self.warm_start, "warm_start")
        warm = self.warm_start and bool(getattr(self, "estimators_", None))
        return self._boost(X, y, loss, warm)


class GradientBoostingRegressor(_GradientBoosting):
    """Least-squares gradient boosting — the paper's GBTR."""

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X, y = check_X_y(X, y)
        return self._fit_boosting(X, y, LeastSquaresLoss())

    def predict(self, X) -> np.ndarray:
        return self._raw_predict(X)


class GradientBoostingClassifier(_GradientBoosting):
    """Binary gradient boosting with binomial deviance."""

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y, y_numeric=False)
        classes = np.unique(y)
        if classes.shape[0] > 2:
            raise ValueError("GradientBoostingClassifier supports binary labels only.")
        self.classes_ = classes
        y01 = (y == classes[-1]).astype(np.float64)
        if classes.shape[0] == 1:
            # Degenerate single-class training set: constant predictor.
            self.init_raw_ = np.inf if classes[0] == 1 else -np.inf
            self.estimators_ = []
            self._packed = _PackedTrees([])
            self.n_features_in_ = check_array(X).shape[1]
            self._single_class_ = classes[0]
            return self
        self._single_class_ = None
        return self._fit_boosting(X, y01, BinomialDevianceLoss())

    def decision_function(self, X) -> np.ndarray:
        """Log-odds of the positive (last) class."""
        if getattr(self, "_single_class_", None) is not None:
            X = check_array(X)
            fill = np.inf if self._single_class_ == self.classes_[-1] else -np.inf
            return np.full(X.shape[0], fill)
        return self._raw_predict(X)

    def predict_proba(self, X) -> np.ndarray:
        if getattr(self, "_single_class_", None) is not None:
            X = check_array(X)
            return np.ones((X.shape[0], 1))
        p1 = _sigmoid(self._raw_predict(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        if getattr(self, "_single_class_", None) is not None:
            X = check_array(X)
            return np.full(X.shape[0], self._single_class_)
        proba = self.predict_proba(X)
        return self.classes_[(proba[:, 1] >= 0.5).astype(int)]
