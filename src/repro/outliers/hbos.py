"""Histogram-Based Outlier Score (Goldstein & Dengel, 2012).

Fit an equal-width histogram per feature; a point's score is the sum over
features of ``log(1 / density)`` of its bin — an independence-assuming
log-probability. Out-of-range points get the density of the nearest edge bin
scaled down, so unseen extremes still score high.
"""

from __future__ import annotations

import numpy as np

from repro.outliers.base import BaseDetector
from repro.utils.validation import check_positive_int


class HBOS(BaseDetector):
    """HBOS detector.

    Parameters
    ----------
    n_bins : int
        Histogram bins per feature.
    tol : float
        Density floor as a fraction of the minimum nonzero density, used for
        empty bins and out-of-range values.
    """

    def __init__(
        self, n_bins: int = 10, tol: float = 0.5, contamination: float = 0.1
    ):
        super().__init__(contamination=contamination)
        self.n_bins = n_bins
        self.tol = tol

    def _fit(self, X: np.ndarray) -> None:
        check_positive_int(self.n_bins, "n_bins")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2.")
        n, d = X.shape
        self.bin_edges_ = []
        self.densities_ = []
        for j in range(d):
            counts, edges = np.histogram(X[:, j], bins=self.n_bins)
            width = edges[1] - edges[0]
            if width <= 0:
                # Constant feature: uninformative, uniform density.
                density = np.ones(self.n_bins)
            else:
                density = counts / (n * width)
            floor = self.tol * (
                density[density > 0].min() if (density > 0).any() else 1.0
            )
            density = np.maximum(density, floor)
            self.bin_edges_.append(edges)
            self.densities_.append(density)

    def _score(self, X: np.ndarray) -> np.ndarray:
        n, d = X.shape
        score = np.zeros(n)
        for j in range(d):
            edges = self.bin_edges_[j]
            density = self.densities_[j]
            idx = np.searchsorted(edges, X[:, j], side="right") - 1
            idx = np.clip(idx, 0, self.n_bins - 1)
            dens = density[idx]
            # Penalize points outside the training range.
            out = (X[:, j] < edges[0]) | (X[:, j] > edges[-1])
            dens = np.where(out, dens * self.tol, dens)
            score += -np.log(dens + 1e-300)
        return score
