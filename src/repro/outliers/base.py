"""Common base class for all outlier detectors (PyOD-style contract)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.learn.base import BaseEstimator
from repro.learn.neighbors import NearestNeighbors
from repro.utils.validation import check_array, check_is_fitted, check_n_features


def iter_row_blocks(n: int, per_row_cost: int, budget: int = 2_000_000):
    """Yield ``(start, end)`` row slices so each block's batched temporaries
    stay within ``budget`` elements.

    Shared by the batched detector kernels (ABOD, COF, SOD) whose
    intermediate tensors cost ``per_row_cost`` elements per scored row.
    """
    step = max(1, budget // max(1, per_row_cost))
    for start in range(0, n, step):
        yield start, min(start + step, n)


class BaseDetector(BaseEstimator):
    """Outlier detector contract.

    Subclasses implement ``_fit(X)`` (storing whatever they need) and
    ``_score(X)`` returning raw outlier scores, **higher = more anomalous**.
    This base class handles input validation, the contamination threshold and
    binary prediction.

    Parameters
    ----------
    contamination : float
        Expected fraction of outliers; sets the decision threshold at the
        (1 − contamination) quantile of the training scores. The paper's
        straggler definition (p90) corresponds to 0.1.
    """

    def __init__(self, contamination: float = 0.1):
        self.contamination = contamination

    # Subclass hooks ----------------------------------------------------
    def _fit(self, X: np.ndarray) -> None:
        raise NotImplementedError

    def _score(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # Shared helpers ----------------------------------------------------
    @staticmethod
    def _kneighbors(
        nn: NearestNeighbors, X: np.ndarray, n_neighbors: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Query ``nn`` for ``X``'s neighbors, excluding self-matches when
        ``X`` is the training matrix.

        The single entry point for every kNN-family detector's scoring
        query; it centralizes the ``exclude_self`` decision (previously
        re-derived, inconsistently, in each detector) via
        :meth:`NearestNeighbors.is_self_query`.
        """
        return nn.kneighbors(
            X, n_neighbors=n_neighbors, exclude_self=nn.is_self_query(X)
        )

    # Public API --------------------------------------------------------
    def fit(self, X, y=None) -> "BaseDetector":
        """Fit the detector on (unlabeled) data and set the threshold."""
        if not 0.0 < self.contamination < 0.5:
            raise ValueError("contamination must be in (0, 0.5).")
        X = check_array(X)
        self._fit(X)
        self.n_features_in_ = X.shape[1]
        train_scores = self._score(X)
        self.decision_scores_ = train_scores
        self.threshold_ = float(np.quantile(train_scores, 1.0 - self.contamination))
        return self

    def decision_function(self, X) -> np.ndarray:
        """Outlier scores for ``X`` (higher = more anomalous)."""
        check_is_fitted(self, ["threshold_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
        return self._score(X)

    def predict(self, X) -> np.ndarray:
        """Binary labels: 1 = outlier, 0 = inlier."""
        return (self.decision_function(X) > self.threshold_).astype(np.int64)
