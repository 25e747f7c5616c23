"""Cox proportional-hazards model (Cox, 1972) with Breslow baseline.

Fits β by Newton iterations on the Breslow-ties partial likelihood, then
estimates the baseline cumulative hazard; ``predict_survival(t, X)`` returns
``S(t | x) = exp(−H₀(t) · e^{x·β})``. The proportional-hazards and
time-invariant-effect assumptions are exactly what the paper argues fail for
heterogeneous straggling (§3.4).
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator
from repro.learn.preprocessing import StandardScaler
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_n_features,
    check_X_y,
)

#: Newton iteration cap, ridge penalty on β (for stability), and the max
#: coefficient update that stops the iterations.
_MAX_ITER = 50
_L2 = 1e-2
_TOL = 1e-6


class CoxPHFitter(BaseEstimator):
    """Cox proportional hazards for right-censored durations."""

    def fit(self, X, durations, events) -> "CoxPHFitter":
        """Fit on durations; ``events[i]`` is True when the duration is an
        observed completion (False = right-censored)."""
        X, durations = check_X_y(X, durations)
        events = np.asarray(events, dtype=bool)
        if events.shape != durations.shape:
            raise ValueError("events must match durations in length.")
        if events.sum() < 2:
            raise ValueError("need at least 2 observed events.")
        self.scaler_ = StandardScaler().fit(X)
        Z = self.scaler_.transform(X)
        n, d = Z.shape

        order = np.argsort(durations, kind="mergesort")
        Z = Z[order]
        t = durations[order]
        e = events[order]

        beta = np.zeros(d)
        for _ in range(_MAX_ITER):
            eta = np.clip(Z @ beta, -30.0, 30.0)
            w = np.exp(eta)
            # Reverse cumulative sums give risk-set aggregates at each time.
            rs_w = np.cumsum(w[::-1])[::-1]  # Σ_{j in R_i} w_j
            rs_zw = np.cumsum((Z * w[:, None])[::-1], axis=0)[::-1]
            grad = np.zeros(d)
            hess = np.zeros((d, d))
            # Breslow: each event contributes z_i − E_w[z | risk set].
            ev_idx = np.nonzero(e)[0]
            for i in ev_idx:
                zbar = rs_zw[i] / rs_w[i]
                grad += Z[i] - zbar
                # E_w[zz^T] via a second reverse cumsum would cost O(n d²)
                # memory; recompute the outer-moment from the risk set tail.
                tail = slice(i, n)
                Zw = Z[tail] * w[tail, None]
                m2 = Z[tail].T @ Zw / rs_w[i]
                hess -= m2 - np.outer(zbar, zbar)
            grad -= _L2 * beta
            hess -= _L2 * np.eye(d)
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            max_step = np.max(np.abs(step))
            if max_step > 5.0:
                step *= 5.0 / max_step
            beta -= step
            if np.max(np.abs(step)) < _TOL:
                break
        self.coef_ = beta

        # Breslow baseline cumulative hazard at each event time.
        eta = np.clip(Z @ beta, -30.0, 30.0)
        w = np.exp(eta)
        rs_w = np.cumsum(w[::-1])[::-1]
        event_times = t[e]
        increments = 1.0 / rs_w[e]
        # Aggregate ties.
        uniq, inverse = np.unique(event_times, return_inverse=True)
        H0 = np.zeros(uniq.shape[0])
        np.add.at(H0, inverse, increments)
        self.baseline_times_ = uniq
        self.baseline_cumhaz_ = np.cumsum(H0)
        self.n_features_in_ = X.shape[1]
        return self

    def _cumhaz_at(self, times) -> np.ndarray:
        idx = np.searchsorted(self.baseline_times_, times, side="right") - 1
        out = np.where(idx >= 0, self.baseline_cumhaz_[np.maximum(idx, 0)], 0.0)
        return out

    def predict_partial_hazard(self, X) -> np.ndarray:
        """Relative risk exp(x·β)."""
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
        Z = self.scaler_.transform(X)
        return np.exp(np.clip(Z @ self.coef_, -30.0, 30.0))

    def predict_survival(self, t: float, X) -> np.ndarray:
        """S(t | x) for each row of X."""
        risk = self.predict_partial_hazard(X)
        h0 = float(self._cumhaz_at(np.asarray([t]))[0])
        return np.exp(-h0 * risk)
