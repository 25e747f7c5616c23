"""Grabit: gradient-boosted trees with the Tobit loss
(Sigrist & Hirnschall, 2019).

Each boosting stage fits a tree to the negative gradient of the Tobit
negative log-likelihood and re-estimates leaf values with a Newton step,
exactly like :mod:`repro.learn.gbm` but with per-sample censoring state.
σ is a hyperparameter (re-estimated once from the initial residuals).
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm

from repro.learn.base import BaseEstimator, RegressorMixin
from repro.learn.tree import _MAX_HIST_BINS, _Binner, _PackedTrees
from repro.learn.tree import DecisionTreeRegressor
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)


def _tobit_grad_hess(y, raw, censored, sigma):
    """Per-sample first/second derivatives of the Tobit NLL w.r.t. raw.

    Uncensored: NLL' = -(y-f)/σ², NLL'' = 1/σ².
    Right-censored at y: NLL' = -λ(z)/σ, NLL'' = λ(z)(λ(z)-z)/σ²,
    with z = (y-f)/σ and hazard λ = φ/Φ̄.
    """
    z = (y - raw) / sigma
    zc = np.clip(z, -30.0, 30.0)
    with np.errstate(divide="ignore", over="ignore"):
        hazard = np.exp(norm.logpdf(zc) - norm.logsf(zc))
    # Mills-ratio asymptote for the deep tail: λ(z) ≈ z + 1/z.
    hazard = np.where(z > 30.0, z + 1.0 / np.maximum(z, 1.0), hazard)
    grad = np.where(censored, -hazard / sigma, -(y - raw) / sigma**2)
    hess = np.where(
        censored,
        hazard * (hazard - z) / sigma**2,
        1.0 / sigma**2,
    )
    return grad, np.maximum(hess, 1e-12)


class GrabitRegressor(BaseEstimator, RegressorMixin):
    """Tobit-loss gradient boosting.

    Parameters
    ----------
    n_estimators, learning_rate, max_depth, min_samples_leaf : as in
        :class:`repro.learn.GradientBoostingRegressor`.
    sigma : float or None
        Tobit scale; None estimates it from the uncensored residual std of
        the constant model.
    splitter : {'hist', 'exact'}
        Split search strategy of the stage trees; 'hist' bins the features
        once per fit and reuses the binned matrix across all stages.
    """

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        sigma=None,
        splitter: str = "hist",
        max_bins: int = _MAX_HIST_BINS,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.sigma = sigma
        self.splitter = splitter
        self.max_bins = max_bins
        self.random_state = random_state

    def fit(self, X, y, censored=None) -> "GrabitRegressor":
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1.")
        X, y = check_X_y(X, y)
        if censored is None:
            censored = np.zeros(y.shape[0], dtype=bool)
        censored = np.asarray(censored, dtype=bool)
        if censored.shape != y.shape:
            raise ValueError("censored must match y in length.")
        if (~censored).sum() < 1:
            raise ValueError("need at least 1 uncensored observation.")
        rng = check_random_state(self.random_state)
        obs = ~censored
        self.init_raw_ = float(y[obs].mean())
        if self.sigma is not None:
            sigma = float(self.sigma)
            if sigma <= 0:
                raise ValueError("sigma must be positive.")
        else:
            sigma = max(float(np.std(y[obs] - self.init_raw_)), 1e-6)
        self.sigma_ = sigma
        if self.splitter not in ("exact", "hist"):
            raise ValueError(
                f"splitter must be 'exact' or 'hist'; got {self.splitter!r}."
            )
        if self.splitter == "hist":
            binner = _Binner(self.max_bins).fit(X)
            codes = binner.transform(X)
        raw = np.full(y.shape[0], self.init_raw_)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            grad, hess = _tobit_grad_hess(y, raw, censored, sigma)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                splitter=self.splitter,
                max_bins=self.max_bins,
                random_state=rng,
            )
            if self.splitter == "hist":
                tree._fit_binned(codes, -grad, binner)
            else:
                tree._fit_validated(X, -grad)
            # Newton leaf values: -(Σ grad) / (Σ hess) per leaf, in one
            # bincount pass over the builder's recorded leaf assignment.
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
        self._packed = _PackedTrees([tree.tree_ for tree in self.estimators_])
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        """Latent mean prediction."""
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.n_features_in_}."
            )
        return self._packed.raw(X, self.init_raw_, self.learning_rate)
