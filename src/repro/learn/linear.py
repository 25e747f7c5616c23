"""Logistic regression, NURD's propensity model.

Logistic regression is fitted by Newton–Raphson with L2 regularization and a
damped fallback, which is fast and extremely stable on the small per-job
datasets NURD retrains every checkpoint.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator
from repro.learn.gbm import _sigmoid
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_n_features,
    check_X_y,
)

#: Inverse regularization strength (sklearn convention).
_C = 1.0
#: Newton iteration cap and the coefficient-update tolerance that stops it.
_MAX_ITER = 100
_TOL = 1e-6


def _add_intercept(X: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(X.shape[0]), X])


class LogisticRegression(BaseEstimator):
    """Binary L2-regularized logistic regression via Newton–Raphson.

    The penalty on the coefficients is ``1/(2C) * ||w||²`` with ``C = 1``
    (intercept unpenalized); Newton stops after ``_MAX_ITER`` iterations or
    once the max absolute coefficient update falls below ``_TOL``.
    """

    def fit(self, X, y) -> "LogisticRegression":
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
        lam = 1.0 / _C
        reg = np.full(d, lam)
        reg[0] = 0.0  # do not penalize the intercept
        n_iter = 0
        for n_iter in range(1, _MAX_ITER + 1):
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
            if np.max(np.abs(step)) < _TOL:
                break
        self.intercept_ = float(beta[0])
        self.coef_ = beta[1:]
        self.n_features_in_ = X.shape[1]
        self.n_iter_ = n_iter
        return self

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
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
