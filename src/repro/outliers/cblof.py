"""Cluster-Based Local Outlier Factor (He, Xu & Deng, 2003).

Cluster the data with k-means, split clusters into *large* and *small* using
the (α, β) rule, and score each point by its distance to the nearest large
cluster's centroid (points in small clusters measure to the closest large
cluster). Following PyOD's default, scores are not weighted by cluster size.
"""

from __future__ import annotations

import numpy as np

from repro.learn.cluster import KMeans
from repro.outliers.base import BaseDetector

#: k-means clusters. Large clusters jointly cover at least ``_ALPHA`` of the
#: points, or are ``_BETA`` times bigger than the next smaller cluster.
_N_CLUSTERS = 8
_ALPHA = 0.9
_BETA = 5.0


class CBLOF(BaseDetector):
    """CBLOF detector. ``random_state`` seeds the k-means restarts."""

    def __init__(self, contamination: float = 0.1, random_state=None):
        super().__init__(contamination=contamination)
        self.random_state = random_state

    def _fit(self, X: np.ndarray) -> None:
        k = min(_N_CLUSTERS, X.shape[0])
        self.kmeans_ = KMeans(n_clusters=k, random_state=self.random_state).fit(X)
        sizes = np.bincount(self.kmeans_.labels_, minlength=k)
        order = np.argsort(sizes)[::-1]  # biggest first
        n = X.shape[0]
        cum = np.cumsum(sizes[order])
        # Find the boundary index per the (α, β) rule.
        boundary = k  # default: all clusters large
        for i in range(k - 1):
            covers = cum[i] >= _ALPHA * n
            ratio_ok = sizes[order[i]] >= _BETA * max(sizes[order[i + 1]], 1)
            if covers or ratio_ok:
                boundary = i + 1
                break
        large = np.zeros(k, dtype=bool)
        large[order[:boundary]] = True
        if not large.any():
            large[order[0]] = True
        self.large_clusters_ = np.nonzero(large)[0]
        self.large_centers_ = self.kmeans_.cluster_centers_[large]

    def _score(self, X: np.ndarray) -> np.ndarray:
        d2 = (
            np.sum(X**2, axis=1)[:, None]
            - 2.0 * X @ self.large_centers_.T
            + np.sum(self.large_centers_**2, axis=1)[None, :]
        )
        return np.sqrt(np.maximum(d2.min(axis=1), 0.0))
