"""From-scratch ML substrate used by NURD and every baseline.

Implements the slice of a scikit-learn-style toolkit the paper's evaluation
depends on: CART trees, gradient boosting with pluggable losses, logistic and
linear regression, linear/one-class SVMs, nearest neighbors, k-means, data
scalers and classification metrics. Everything is pure NumPy/SciPy.
"""

from repro.learn.base import BaseEstimator, ClassifierMixin, RegressorMixin, clone
from repro.learn.tree import DecisionTreeRegressor
from repro.learn.gbm import (
    GradientBoostingRegressor,
    GradientBoostingClassifier,
)
from repro.learn.linear import (
    LogisticRegression,
    LinearRegression,
    RidgeRegression,
)
from repro.learn.svm import LinearSVC, OneClassSVM
from repro.learn.preprocessing import StandardScaler, MinMaxScaler
from repro.learn.cluster import KMeans
from repro.learn.metrics import (
    confusion_binary,
    f1_score,
    precision_score,
    recall_score,
    true_positive_rate,
    false_positive_rate,
    false_negative_rate,
    accuracy_score,
    roc_auc_score,
    mean_squared_error,
    mean_absolute_error,
    r2_score,
)

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "RegressorMixin",
    "clone",
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "GradientBoostingClassifier",
    "LogisticRegression",
    "LinearRegression",
    "RidgeRegression",
    "LinearSVC",
    "OneClassSVM",
    "StandardScaler",
    "MinMaxScaler",
    "KMeans",
    "confusion_binary",
    "f1_score",
    "precision_score",
    "recall_score",
    "true_positive_rate",
    "false_positive_rate",
    "false_negative_rate",
    "accuracy_score",
    "roc_auc_score",
    "mean_squared_error",
    "mean_absolute_error",
    "r2_score",
]
