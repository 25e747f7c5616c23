"""Linear models: logistic regression (NURD's propensity model), OLS, ridge.

Logistic regression is fitted by Newton–Raphson with L2 regularization and a
damped fallback, which is fast and extremely stable on the small per-job
datasets NURD retrains every checkpoint.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.learn.gbm import _sigmoid
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_positive_finite,
    check_positive_int,
    check_X_y,
)


def _add_intercept(X: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(X.shape[0]), X])


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary L2-regularized logistic regression via Newton–Raphson.

    Parameters
    ----------
    C : float
        Inverse regularization strength (sklearn convention), finite and
        > 0; the penalty on the coefficients is ``1/(2C) * ||w||²``
        (intercept unpenalized).
    max_iter : int
        Newton iteration cap, an integer >= 1.
    tol : float
        Stop when the max absolute coefficient update falls below this.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 100, tol: float = 1e-6):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y) -> "LogisticRegression":
        check_positive_finite(self.C, "C")
        check_positive_int(self.max_iter, "max_iter")
        X, y = check_X_y(X, y, y_numeric=False)
        classes = np.unique(y)
        if classes.shape[0] > 2:
            raise ValueError("LogisticRegression supports binary labels only.")
        self.classes_ = classes
        if classes.shape[0] == 1:
            self._single_class_ = classes[0]
            self.coef_ = np.zeros(X.shape[1])
            self.intercept_ = 0.0
            self.n_features_in_ = X.shape[1]
            self.n_iter_ = 0
            return self
        self._single_class_ = None
        t = (y == classes[-1]).astype(np.float64)
        Xb = _add_intercept(X)
        n, d = Xb.shape
        beta = np.zeros(d)
        lam = 1.0 / self.C
        reg = np.full(d, lam)
        reg[0] = 0.0  # do not penalize the intercept
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            eta = Xb @ beta
            p = _sigmoid(eta)
            grad = Xb.T @ (p - t) + reg * beta
            w = np.maximum(p * (1.0 - p), 1e-10)
            hess = (Xb * w[:, None]).T @ Xb
            hess[np.diag_indices_from(hess)] += reg + 1e-8
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            # Damp divergent steps (rare, near-separable data).
            max_step = np.max(np.abs(step))
            if max_step > 10.0:
                step *= 10.0 / max_step
            beta -= step
            if np.max(np.abs(step)) < self.tol:
                break
        self.intercept_ = float(beta[0])
        self.coef_ = beta[1:]
        self.n_features_in_ = X.shape[1]
        self.n_iter_ = n_iter
        return self

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.n_features_in_}."
            )
        if self._single_class_ is not None:
            fill = np.inf if self._single_class_ == self.classes_[-1] else -np.inf
            return np.full(X.shape[0], fill)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        if self._single_class_ is not None:
            X = check_array(X)
            return np.ones((X.shape[0], 1))
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        if self._single_class_ is not None:
            X = check_array(X)
            return np.full(X.shape[0], self._single_class_)
        proba = self.predict_proba(X)
        return self.classes_[(proba[:, 1] >= 0.5).astype(int)]


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares via ``numpy.linalg.lstsq``."""

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_X_y(X, y)
        A = _add_intercept(X) if self.fit_intercept else X
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        if self.fit_intercept:
            self.intercept_ = float(beta[0])
            self.coef_ = beta[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = beta
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.n_features_in_}."
            )
        return X @ self.coef_ + self.intercept_


class RidgeRegression(BaseEstimator, RegressorMixin):
    """L2-regularized least squares with an unpenalized intercept."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X, y) -> "RidgeRegression":
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative.")
        X, y = check_X_y(X, y)
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        Xc = X - x_mean
        yc = y - y_mean
        d = X.shape[1]
        A = Xc.T @ Xc + self.alpha * np.eye(d)
        b = Xc.T @ yc
        coef = np.linalg.solve(A, b)
        self.coef_ = coef
        self.intercept_ = float(y_mean - x_mean @ coef)
        self.n_features_in_ = d
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.n_features_in_}."
            )
        return X @ self.coef_ + self.intercept_
