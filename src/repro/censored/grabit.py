"""Grabit: gradient-boosted trees with the Tobit loss
(Sigrist & Hirnschall, 2019).

The Tobit negative log-likelihood is one more loss for the stage loop of
:mod:`repro.learn.gbm`: each stage fits a tree to its negative gradient and
re-estimates leaf values with the shared Newton step, with per-sample
censoring state held by the loss. σ is a hyperparameter (estimated once
from the constant model's uncensored residuals when not given).
"""

from __future__ import annotations

import numpy as np

from repro.censored.tobit import _normal_hazard
from repro.learn.gbm import LossFunction, _BaseGradientBoosting
from repro.learn.tree import _MAX_HIST_BINS
from repro.utils.validation import check_positive_finite, check_X_y


def _tobit_grad_hess(y, raw, censored, sigma):
    """Per-sample first/second derivatives of the Tobit NLL w.r.t. raw.

    Uncensored: NLL' = -(y-f)/σ², NLL'' = 1/σ².
    Right-censored at y: NLL' = -λ(z)/σ, NLL'' = λ(z)(λ(z)-z)/σ²,
    with z = (y-f)/σ and hazard λ = φ/Φ̄.
    """
    z = (y - raw) / sigma
    hazard = _normal_hazard(z)
    grad = np.where(censored, -hazard / sigma, -(y - raw) / sigma**2)
    hess = np.where(
        censored,
        hazard * (hazard - z) / sigma**2,
        1.0 / sigma**2,
    )
    return grad, np.maximum(hess, 1e-12)


class _TobitLoss(LossFunction):
    """Tobit NLL with right-censoring at ``y`` where ``censored`` is set."""

    def __init__(self, censored: np.ndarray, sigma: float):
        self.censored = censored
        self.sigma = sigma

    def init_raw(self, y):
        return float(y[~self.censored].mean())

    def gradients(self, y, raw):
        # The hazard is evaluated once per stage, for both derivatives.
        grad, hess = _tobit_grad_hess(y, raw, self.censored, self.sigma)
        return -grad, hess


class GrabitRegressor(_BaseGradientBoosting):
    """Tobit-loss gradient boosting.

    The stages are GBTR's: 60 trees of depth 3 at learning rate 0.1.

    Parameters
    ----------
    sigma : float or None
        Tobit scale; None estimates it from the uncensored residual std of
        the constant model.
    """

    # Stage settings read by ``_boost``.
    n_estimators = 60
    max_depth = 3
    max_bins = _MAX_HIST_BINS

    def __init__(self, sigma=None):
        self.sigma = sigma

    def fit(self, X, y, censored=None) -> "GrabitRegressor":
        X, y = check_X_y(X, y)
        if censored is None:
            censored = np.zeros(y.shape[0], dtype=bool)
        censored = np.asarray(censored, dtype=bool)
        if censored.shape != y.shape:
            raise ValueError("censored must match y in length.")
        if (~censored).sum() < 1:
            raise ValueError("need at least 1 uncensored observation.")
        if self.sigma is not None:
            check_positive_finite(self.sigma, "sigma")
            sigma = float(self.sigma)
        else:
            y_obs = y[~censored]
            sigma = max(float(np.std(y_obs - float(y_obs.mean()))), 1e-6)
        self.sigma_ = sigma
        return self._boost(X, y, _TobitLoss(censored, sigma))

    def predict(self, X) -> np.ndarray:
        """Latent mean prediction."""
        return self._raw_predict(X)
