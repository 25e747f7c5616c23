"""kNN outlier detection (Ramaswamy, Rastogi & Shim, SIGMOD 2000).

The outlier score of a point is its distance to its k-th nearest neighbor.
"""

from __future__ import annotations

import numpy as np

from repro.learn.neighbors import NearestNeighbors
from repro.outliers.base import BaseDetector

#: k: a point's score is its distance to its k-th nearest neighbor.
_N_NEIGHBORS = 5


class KNNDetector(BaseDetector):
    """kNN distance detector (k = ``_N_NEIGHBORS``)."""

    def _fit(self, X: np.ndarray) -> None:
        k = min(_N_NEIGHBORS, X.shape[0] - 1)
        if k < 1:
            raise ValueError("KNN needs at least 2 samples.")
        self.nn_ = NearestNeighbors(n_neighbors=k).fit(X)

    def _score(self, X: np.ndarray) -> np.ndarray:
        dist, _ = self._kneighbors(self.nn_, X)
        return dist[:, -1]
