"""Feature standardization (fit/transform protocol)."""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator
from repro.utils.validation import check_array, check_is_fitted, check_n_features


class StandardScaler(BaseEstimator):
    """Standardize features to zero mean and unit variance.

    Constant features get a scale of 1 so transforming never divides by zero.
    """

    def fit(self, X, y=None) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, ["mean_", "scale_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
        return (X - self.mean_) / self.scale_
