"""Tobit (type-I) censored linear regression (Tobin, 1958).

Latent model ``y* = x·β + ε`` with Gaussian ε; for right-censored samples
only ``y* > c`` is known. Maximum likelihood over (β, log σ) by L-BFGS with
analytic gradients. Latency is log-transformed upstream only if the caller
chooses to — the model itself is the classic linear-Gaussian one, which is
precisely the distributional assumption the paper criticizes.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator
from repro.learn.preprocessing import StandardScaler
from repro.utils.validation import check_array, check_is_fitted, check_X_y

#: log √(2π): ``scipy.stats.norm.logpdf(z)`` is ``-z**2 / 2.0`` minus this.
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


def _normal_hazard(z):
    """Standard normal hazard φ(z)/Φ̄(z); ``norm.logsf(z)`` is ``log_ndtr(-z)``.

    Past z = 30 the Mills-ratio asymptote λ(z) ≈ z + 1/z avoids inf/inf.
    """
    from scipy.special import log_ndtr

    zc = np.clip(z, -30.0, 30.0)
    with np.errstate(divide="ignore", over="ignore"):
        hazard = np.exp(-(zc**2) / 2.0 - _LOG_SQRT_2PI - log_ndtr(-zc))
    return np.where(z > 30.0, z + 1.0 / np.maximum(z, 1.0), hazard)


def _negloglik(theta, Zb, y, obs, reg):
    """Penalized Tobit negative log-likelihood of ``(β, log σ)`` and its
    gradient; ``obs`` marks uncensored rows."""
    from scipy.special import log_ndtr

    beta = theta[:-1]
    log_sigma = np.clip(theta[-1], -10.0, 10.0)
    sigma = np.exp(log_sigma)
    mu = Zb @ beta
    z = (y - mu) / sigma
    ll = np.where(obs, -(z**2) / 2.0 - _LOG_SQRT_2PI - log_sigma, log_ndtr(-z))
    penalty = 0.5 * np.sum(reg * beta**2)
    # Uncensored: d/dmu logpdf = z / sigma.
    w_obs = np.where(obs, z / sigma, 0.0)
    # Censored: d/dmu logsf = hazard / sigma.
    hazard = _normal_hazard(z)
    w_cen = np.where(~obs, hazard / sigma, 0.0)
    grad_beta = Zb.T @ (w_obs + w_cen)
    # d/dlog_sigma.
    g_obs = np.where(obs, z**2 - 1.0, 0.0).sum()
    g_cen = np.where(~obs, hazard * z, 0.0).sum()
    grad_logsig = g_obs + g_cen
    grad = np.concatenate([grad_beta - reg * beta, [grad_logsig]])
    return float(-np.sum(ll) + penalty), -grad


class TobitRegressor(BaseEstimator):
    """Right-censored Gaussian linear regression.

    Parameters
    ----------
    max_iter : int
        L-BFGS iteration cap.
    l2 : float
        Ridge penalty on β (not the intercept) for stability on small
        checkpoint datasets.
    """

    def __init__(self, max_iter: int = 200, l2: float = 1e-3):
        self.max_iter = max_iter
        self.l2 = l2

    def fit(self, X, y, censored=None) -> "TobitRegressor":
        """Fit on observations ``y``; ``censored[i]`` marks y_i as a lower
        bound (right-censored) rather than an exact value."""
        from scipy.optimize import minimize

        X, y = check_X_y(X, y)
        if censored is None:
            censored = np.zeros(y.shape[0], dtype=bool)
        censored = np.asarray(censored, dtype=bool)
        if censored.shape != y.shape:
            raise ValueError("censored must match y in length.")
        if (~censored).sum() < 2:
            raise ValueError("need at least 2 uncensored observations.")
        self.scaler_ = StandardScaler().fit(X)
        Z = self.scaler_.transform(X)
        Zb = np.column_stack([np.ones(Z.shape[0]), Z])
        n, d = Zb.shape
        obs = ~censored

        # Initialize from OLS on the uncensored subset.
        beta0, *_ = np.linalg.lstsq(Zb[obs], y[obs], rcond=None)
        resid = y[obs] - Zb[obs] @ beta0
        sigma0 = max(float(resid.std()), 1e-3)
        theta0 = np.concatenate([beta0, [np.log(sigma0)]])
        reg = np.full(d, self.l2)
        reg[0] = 0.0

        res = minimize(
            _negloglik,
            theta0,
            args=(Zb, y, obs, reg),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        theta = res.x
        self.intercept_ = float(theta[0])
        self.coef_ = theta[1:-1]
        self.sigma_ = float(np.exp(np.clip(theta[-1], -10.0, 10.0)))
        self.converged_ = bool(res.success)
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        """Latent mean E[y* | x]."""
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.n_features_in_}."
            )
        Z = self.scaler_.transform(X)
        return Z @ self.coef_ + self.intercept_
