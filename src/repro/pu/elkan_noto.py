"""Elkan–Noto PU learning (KDD 2008) — the paper's PU-EN baseline.

Train a *traditional* classifier g(x) ≈ P(s = 1 | x) on labeled-vs-unlabeled
data, estimate the label frequency ``c = P(s = 1 | y = 1)`` as the average
g(x) over held-out labeled examples, and recover the class posterior
``P(y = 1 | x) = g(x) / c``. Assumes labels are selected completely at
random from the positive class — the assumption the paper shows is violated
for straggler prediction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learn.base import BaseEstimator, clone
from repro.learn.linear import LogisticRegression
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)


class ElkanNotoClassifier(BaseEstimator):
    """PU classifier with Elkan–Noto c-correction.

    ``fit(X, s)`` takes binary ``s`` where 1 marks *labeled* examples (known
    members of the positive class) and 0 marks unlabeled examples.

    Parameters
    ----------
    estimator : classifier or None
        Inner traditional classifier with ``predict_proba``; defaults to
        logistic regression.
    hold_out_ratio : float
        Fraction of labeled examples held out to estimate ``c``.
    """

    def __init__(
        self,
        estimator: Optional[BaseEstimator] = None,
        hold_out_ratio: float = 0.2,
        random_state=None,
    ):
        self.estimator = estimator
        self.hold_out_ratio = hold_out_ratio
        self.random_state = random_state

    def fit(self, X, s) -> "ElkanNotoClassifier":
        if not 0.0 < self.hold_out_ratio < 1.0:
            raise ValueError("hold_out_ratio must be in (0, 1).")
        X, s = check_X_y(X, s, y_numeric=False)
        s = np.asarray(s).astype(np.int64)
        if set(np.unique(s)) - {0, 1}:
            raise ValueError("s must be binary (1 = labeled).")
        labeled_idx = np.nonzero(s == 1)[0]
        if labeled_idx.shape[0] < 2:
            raise ValueError("need at least 2 labeled examples.")
        rng = check_random_state(self.random_state)
        n_hold = max(1, int(round(self.hold_out_ratio * labeled_idx.shape[0])))
        hold = rng.choice(labeled_idx, size=n_hold, replace=False)
        train_mask = np.ones(X.shape[0], dtype=bool)
        train_mask[hold] = False
        base = self.estimator if self.estimator is not None else LogisticRegression()
        self.classifier_ = clone(base)
        self.classifier_.fit(X[train_mask], s[train_mask])
        proba_hold = self._inner_proba(X[hold])
        self.c_ = float(np.clip(proba_hold.mean(), 1e-6, 1.0))
        self.n_features_in_ = X.shape[1]
        return self

    def _inner_proba(self, X: np.ndarray) -> np.ndarray:
        proba = self.classifier_.predict_proba(X)
        if proba.shape[1] == 1:
            return np.full(X.shape[0], float(self.classifier_.classes_[0]))
        col = int(np.where(self.classifier_.classes_ == 1)[0][0])
        return proba[:, col]

    def predict_proba(self, X) -> np.ndarray:
        """P(y = 1 | x) (column 1), clipped to [0, 1]."""
        check_is_fitted(self, ["classifier_", "c_"])
        X = check_array(X)
        p = np.clip(self._inner_proba(X) / self.c_, 0.0, 1.0)
        return np.column_stack([1.0 - p, p])

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)
