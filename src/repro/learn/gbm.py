"""Gradient boosting on CART trees with pluggable losses.

``GradientBoostingRegressor`` with the default least-squares loss is the
paper's GBTR predictor (the supervised baseline and NURD's latency model
``h_t``); the Tobit loss in :mod:`repro.censored.grabit` plugs into the same
machinery to form Grabit. ``GradientBoostingClassifier`` (binomial deviance)
backs XGBOD and is available as an alternative propensity model.

Each boosting stage fits a regression tree to the negative gradient and then
re-estimates leaf values with one Newton step of the true loss (the classic
Friedman/TreeBoost update), so non-quadratic losses converge properly.

Two training-speed levers (both preserve the model family):

- ``splitter="hist"`` (default) quantizes features into ≤255 bins **once per
  ensemble fit** and grows every stage's tree on the shared binned matrix —
  the histogram split search of :mod:`repro.learn.tree` without per-tree
  binning cost.
- ``warm_start=True`` makes ``fit`` extend an already-fitted ensemble up to
  the current ``n_estimators`` instead of restarting from scratch: existing
  trees are kept, raw predictions are re-accumulated on the new data, and
  only the missing stages are trained. NURD exploits this to reuse each
  checkpoint's ensemble at the next checkpoint.

Every GBM prediction, the warm-start replay included, goes through one
packed router (``tree._PackedTrees``) built once per fit from
``estimators_``: all trees are routed at once, one pass per depth level.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learn.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.learn.tree import _MAX_HIST_BINS, _Binner, _PackedTrees
from repro.learn.tree import DecisionTreeRegressor
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)


class LossFunction:
    """Interface for boosting losses.

    ``raw`` denotes the additive model output before any link function.
    """

    def init_raw(self, y: np.ndarray) -> float:
        """Constant raw prediction minimizing the loss."""
        raise NotImplementedError

    def negative_gradient(self, y: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Pseudo-residuals the next tree is fitted to."""
        raise NotImplementedError

    def loss(self, y: np.ndarray, raw: np.ndarray) -> float:
        """Mean loss value (for monitoring / early stopping)."""
        raise NotImplementedError

    def leaf_value(
        self, y: np.ndarray, raw: np.ndarray, residual: np.ndarray
    ) -> float:
        """Newton-step leaf estimate given the samples in one leaf."""
        raise NotImplementedError

    def leaf_values(
        self,
        y: np.ndarray,
        raw: np.ndarray,
        residual: np.ndarray,
        leaves: np.ndarray,
        n_nodes: int,
    ):
        """Newton leaf estimates for all leaves at once.

        Returns ``(values, occupied)`` where ``values[j]`` is the estimate
        for node ``j`` and ``occupied`` marks nodes holding ≥1 sample. The
        generic fallback loops; concrete losses override with one
        ``bincount`` pass.
        """
        counts = np.bincount(leaves, minlength=n_nodes)
        occupied = counts > 0
        values = np.zeros(n_nodes, dtype=np.float64)
        for leaf in np.nonzero(occupied)[0]:
            members = leaves == leaf
            values[leaf] = self.leaf_value(
                y[members], raw[members], residual[members]
            )
        return values, occupied

    def link_inverse(self, raw: np.ndarray) -> np.ndarray:
        """Map raw scores to the prediction scale (identity by default)."""
        return raw


class LeastSquaresLoss(LossFunction):
    """L(y, f) = (y - f)^2 / 2. Newton leaf value is the mean residual."""

    def init_raw(self, y):
        return float(np.mean(y))

    def negative_gradient(self, y, raw):
        return y - raw

    def loss(self, y, raw):
        return float(0.5 * np.mean((y - raw) ** 2))

    def leaf_value(self, y, raw, residual):
        return float(np.mean(residual))

    def leaf_values(self, y, raw, residual, leaves, n_nodes):
        counts = np.bincount(leaves, minlength=n_nodes)
        sums = np.bincount(leaves, weights=residual, minlength=n_nodes)
        occupied = counts > 0
        values = np.divide(
            sums, counts, out=np.zeros(n_nodes), where=occupied
        )
        return values, occupied


class BinomialDevianceLoss(LossFunction):
    """Logistic loss for y in {0, 1}; raw is the log-odds."""

    def init_raw(self, y):
        p = np.clip(np.mean(y), 1e-6, 1 - 1e-6)
        return float(np.log(p / (1.0 - p)))

    def negative_gradient(self, y, raw):
        return y - _sigmoid(raw)

    def loss(self, y, raw):
        # log(1 + exp(-margin)) written stably.
        margin = np.where(y > 0.5, raw, -raw)
        return float(np.mean(np.logaddexp(0.0, -margin)))

    def leaf_value(self, y, raw, residual):
        p = _sigmoid(raw)
        denom = np.sum(p * (1.0 - p))
        if denom < 1e-12:
            return 0.0
        return float(np.sum(residual) / denom)

    def leaf_values(self, y, raw, residual, leaves, n_nodes):
        p = _sigmoid(raw)
        counts = np.bincount(leaves, minlength=n_nodes)
        nums = np.bincount(leaves, weights=residual, minlength=n_nodes)
        denoms = np.bincount(leaves, weights=p * (1.0 - p), minlength=n_nodes)
        occupied = counts > 0
        values = np.divide(
            nums, denoms, out=np.zeros(n_nodes), where=denoms >= 1e-12
        )
        return values, occupied

    def link_inverse(self, raw):
        return _sigmoid(raw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _BaseGradientBoosting(BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        max_features: Optional[float] = None,
        splitter: str = "hist",
        max_bins: int = _MAX_HIST_BINS,
        warm_start: bool = False,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_features = max_features
        self.splitter = splitter
        self.max_bins = max_bins
        self.warm_start = warm_start
        self.random_state = random_state

    def _make_loss(self) -> LossFunction:
        raise NotImplementedError

    def _fit_boosting(self, X: np.ndarray, y: np.ndarray):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1.")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1].")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1].")
        if self.splitter not in ("exact", "hist"):
            raise ValueError(
                f"splitter must be 'exact' or 'hist'; got {self.splitter!r}."
            )
        loss = self._make_loss()
        n = X.shape[0]
        if self.warm_start and getattr(self, "estimators_", None):
            # Continue boosting: keep fitted trees, replay them on the new
            # data, and train only the stages still missing.
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
            rng = self._rng
            raw = self._packed.raw(X, self.init_raw_, self.learning_rate)
        else:
            rng = check_random_state(self.random_state)
            self._rng = rng
            self.init_raw_ = loss.init_raw(y)
            raw = np.full(n, self.init_raw_, dtype=np.float64)
            self.estimators_ = []
            self.train_loss_ = []
            n_new = self.n_estimators
        if self.splitter == "hist":
            # Bin once per fit; every stage reuses the shared codes.
            binner = _Binner(self.max_bins).fit(X)
            codes = binner.transform(X)
        n_sub = max(1, int(round(self.subsample * n)))
        for _ in range(n_new):
            residual = loss.negative_gradient(y, raw)
            if self.subsample < 1.0:
                idx = rng.choice(n, size=n_sub, replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
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
            # Newton re-estimation of leaf values on the in-bag samples;
            # the builder already recorded their leaf assignment.
            leaves_in = tree._train_leaves_
            new_values = tree.tree_.value.copy()
            values, occupied = loss.leaf_values(
                y[idx], raw[idx], residual[idx], leaves_in,
                tree.tree_.node_count,
            )
            new_values[occupied, 0] = values[occupied]
            tree.tree_.value = new_values
            if idx.shape[0] == n:
                # No subsampling: the train-leaf assignment covers every
                # sample, so skip re-routing the data through the tree.
                raw += self.learning_rate * new_values[leaves_in, 0]
            else:
                raw += self.learning_rate * tree.tree_.predict(X)[:, 0]
            self.estimators_.append(tree)
            self.train_loss_.append(loss.loss(y, raw))
        self._packed = _PackedTrees([tree.tree_ for tree in self.estimators_])
        self.loss_ = loss
        self.n_features_in_ = X.shape[1]
        return self

    def _raw_predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.n_features_in_}."
            )
        return self._packed.raw(X, self.init_raw_, self.learning_rate)

    def staged_raw_predict(self, X):
        """Yield raw predictions after each boosting stage."""
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
        for values in self._packed.leaf_values(X):
            raw += self.learning_rate * values
            yield raw.copy()


class GradientBoostingRegressor(_BaseGradientBoosting, RegressorMixin):
    """Least-squares gradient boosting — the paper's GBTR."""

    def _make_loss(self):
        return LeastSquaresLoss()

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X, y = check_X_y(X, y)
        return self._fit_boosting(X, y)

    def predict(self, X) -> np.ndarray:
        return self.loss_.link_inverse(self._raw_predict(X))


class GradientBoostingClassifier(_BaseGradientBoosting, ClassifierMixin):
    """Binary gradient boosting with binomial deviance."""

    def _make_loss(self):
        return BinomialDevianceLoss()

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y, y_numeric=False)
        classes = np.unique(y)
        if classes.shape[0] > 2:
            raise ValueError(
                "GradientBoostingClassifier supports binary labels only."
            )
        self.classes_ = classes
        y01 = (y == classes[-1]).astype(np.float64)
        if classes.shape[0] == 1:
            # Degenerate single-class training set: constant predictor.
            self.init_raw_ = np.inf if classes[0] == 1 else -np.inf
            self.estimators_ = []
            self._packed = _PackedTrees([])
            self.train_loss_ = []
            self.loss_ = self._make_loss()
            self.n_features_in_ = check_array(X).shape[1]
            self._single_class_ = classes[0]
            return self
        self._single_class_ = None
        return self._fit_boosting(X, y01)

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
