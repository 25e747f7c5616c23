"""From-scratch ML substrate used by NURD and every baseline.

Implements the slice of a scikit-learn-style toolkit the paper's evaluation
depends on: gradient boosting on CART trees with pluggable losses, logistic
regression, linear/one-class SVMs, nearest neighbors, k-means, feature
standardization and the Table-3 classification metrics. Everything is pure
NumPy/SciPy.
"""

from repro.learn.base import BaseEstimator, clone
from repro.learn.gbm import (
    GradientBoostingRegressor,
    GradientBoostingClassifier,
)
from repro.learn.linear import LogisticRegression
from repro.learn.svm import LinearSVC, OneClassSVM
from repro.learn.preprocessing import StandardScaler
from repro.learn.cluster import KMeans
from repro.learn.metrics import (
    confusion_binary,
    f1_score,
    precision_score,
    recall_score,
    true_positive_rate,
    false_positive_rate,
    false_negative_rate,
)

__all__ = [
    "BaseEstimator",
    "clone",
    "GradientBoostingRegressor",
    "GradientBoostingClassifier",
    "LogisticRegression",
    "LinearSVC",
    "OneClassSVM",
    "StandardScaler",
    "KMeans",
    "confusion_binary",
    "f1_score",
    "precision_score",
    "recall_score",
    "true_positive_rate",
    "false_positive_rate",
    "false_negative_rate",
]
