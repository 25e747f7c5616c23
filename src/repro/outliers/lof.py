"""Local Outlier Factor (Breunig et al., SIGMOD 2000).

LOF compares a point's local reachability density (lrd) with that of its
neighbors; LOF ≈ 1 for inliers, ≫ 1 for outliers in sparser regions than
their neighborhoods.
"""

from __future__ import annotations

import numpy as np

from repro.learn.neighbors import NearestNeighbors
from repro.outliers.base import BaseDetector
from repro.utils.validation import check_positive_int


class LOF(BaseDetector):
    """Local outlier factor.

    Parameters
    ----------
    n_neighbors : int
        Neighborhood size (MinPts).
    """

    def __init__(self, n_neighbors: int = 20, contamination: float = 0.1):
        super().__init__(contamination=contamination)
        self.n_neighbors = n_neighbors

    def _fit(self, X: np.ndarray) -> None:
        check_positive_int(self.n_neighbors, "n_neighbors")
        k = min(self.n_neighbors, X.shape[0] - 1)
        if k < 1:
            raise ValueError("LOF needs at least 2 samples.")
        self._k = k
        self.nn_ = NearestNeighbors(n_neighbors=k).fit(X)
        dist, idx = self.nn_.kneighbors()  # training points, self excluded
        self._kdist_train_ = dist[:, -1]          # k-distance of each train pt
        self._lrd_train_ = self._lrd(dist, idx)

    def _lrd(self, dist: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Local reachability density from neighbor distances/indices."""
        # reach-dist_k(a, b) = max(k-distance(b), d(a, b))
        reach = np.maximum(self._kdist_train_[idx], dist)
        mean_reach = reach.mean(axis=1)
        return 1.0 / np.maximum(mean_reach, 1e-12)

    def _score(self, X: np.ndarray) -> np.ndarray:
        dist, idx = self._kneighbors(self.nn_, X)
        lrd = self._lrd(dist, idx)
        neighbor_lrd = self._lrd_train_[idx]
        return neighbor_lrd.mean(axis=1) / np.maximum(lrd, 1e-12)
