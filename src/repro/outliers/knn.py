"""kNN outlier detection (Ramaswamy, Rastogi & Shim, SIGMOD 2000).

The outlier score of a point is its distance to its k-th nearest neighbor.
"""

from __future__ import annotations

import numpy as np

from repro.learn.neighbors import NearestNeighbors
from repro.outliers.base import BaseDetector
from repro.utils.validation import check_positive_int


class KNNDetector(BaseDetector):
    """kNN distance detector.

    Parameters
    ----------
    n_neighbors : int
        k.
    """

    def __init__(self, n_neighbors: int = 5, contamination: float = 0.1):
        super().__init__(contamination=contamination)
        self.n_neighbors = n_neighbors

    def _fit(self, X: np.ndarray) -> None:
        check_positive_int(self.n_neighbors, "n_neighbors")
        k = min(self.n_neighbors, X.shape[0] - 1)
        if k < 1:
            raise ValueError("KNN needs at least 2 samples.")
        self.nn_ = NearestNeighbors(n_neighbors=k).fit(X)

    def _score(self, X: np.ndarray) -> np.ndarray:
        dist, _ = self._kneighbors(self.nn_, X)
        return dist[:, -1]
