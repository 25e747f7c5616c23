"""Bagging PU learning (Mordelet & Vert, 2014) — the paper's PU-BG baseline.

Repeatedly draw a random bootstrap of the unlabeled set as stand-in
negatives, train a linear SVM (per the original paper) against the labeled
positives, and average the decision scores. Each unlabeled point's score
aggregates only the bags where it was out-of-bag.
"""

from __future__ import annotations

import numbers
from typing import Optional

import numpy as np

from repro.learn.base import BaseEstimator, clone
from repro.learn.svm import LinearSVC, _pegasos_lockstep
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_positive_int,
    check_random_state,
    check_X_y,
)


class BaggingPuClassifier(BaseEstimator):
    """Bagging SVM for PU data.

    ``fit(X, s)``: ``s = 1`` marks labeled (positive-class) examples,
    ``s = 0`` unlabeled ones. Every bag fits a
    :class:`repro.learn.LinearSVC`; all bags have the same row count, so
    their Pegasos runs advance in lockstep.

    Parameters
    ----------
    n_estimators : int
        Number of bags.
    sample_size : int or None
        Unlabeled bootstrap size per bag, an int >= 1, clipped to the
        unlabeled count; None matches the labeled count (the balanced
        choice recommended by the original paper).
    """

    def __init__(
        self,
        n_estimators: int = 10,
        sample_size: Optional[int] = None,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.sample_size = sample_size
        self.random_state = random_state

    def fit(self, X, s) -> "BaggingPuClassifier":
        check_positive_int(self.n_estimators, "n_estimators")
        size = self.sample_size
        if size is not None and not (isinstance(size, numbers.Integral) and size >= 1):
            raise ValueError(f"sample_size must be None or an int >= 1, got {size!r}.")
        X, s = check_X_y(X, s, y_numeric=False)
        s = np.asarray(s).astype(np.int64)
        pos = np.nonzero(s == 1)[0]
        unl = np.nonzero(s == 0)[0]
        if pos.shape[0] < 1 or unl.shape[0] < 1:
            raise ValueError("need at least one labeled and one unlabeled example.")
        rng = check_random_state(self.random_state)
        size = min(pos.shape[0] if size is None else size, unl.shape[0])
        base = LinearSVC(max_iter=30, random_state=rng)
        bags, self.estimators_ = [], []
        for _ in range(self.n_estimators):
            bags.append(rng.choice(unl, size=size, replace=True))
            # The clone deep-copies the shared generator, so each bag's SVM
            # shuffles with the stream as it stood after that bag's draw.
            self.estimators_.append(clone(base))
        Xb = X[np.hstack([np.tile(pos, (self.n_estimators, 1)), np.stack(bags)])]
        yb = np.concatenate([np.ones(pos.shape[0]), np.zeros(size)]).astype(int)
        targets = [clf._targets(Xk, yb) for clf, Xk in zip(self.estimators_, Xb)]
        _pegasos_lockstep(self.estimators_, Xb, targets)
        oob_score = np.zeros(X.shape[0])
        oob_count = np.zeros(X.shape[0])
        for clf, bag in zip(self.estimators_, bags):
            oob = np.setdiff1d(unl, bag)
            if oob.shape[0]:
                oob_score[oob] += clf.decision_function(X[oob])
                oob_count[oob] += 1
        self.oob_decision_ = np.divide(
            oob_score,
            np.maximum(oob_count, 1),
            out=np.zeros_like(oob_score),
            where=oob_count > 0,
        )
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X) -> np.ndarray:
        """Averaged decision score; positive = labeled-class-like."""
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.n_features_in_}."
            )
        return np.mean(
            [clf.decision_function(X) for clf in self.estimators_], axis=0
        )

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)
