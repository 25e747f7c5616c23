"""Feature standardization (fit/transform protocol)."""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator
from repro.utils.validation import check_array, check_is_fitted


class StandardScaler(BaseEstimator):
    """Standardize features to zero mean and unit variance.

    Constant features get a scale of 1 so transforming never divides by zero.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X, y=None) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            scale = X.std(axis=0)
            scale[scale == 0.0] = 1.0
            self.scale_ = scale
        else:
            self.scale_ = np.ones(X.shape[1])
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, ["mean_", "scale_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; scaler was fitted with "
                f"{self.n_features_in_}."
            )
        return (X - self.mean_) / self.scale_
