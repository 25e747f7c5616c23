"""Histogram-Based Outlier Score (Goldstein & Dengel, 2012).

Fit an equal-width histogram per feature; a point's score is the sum over
features of ``log(1 / density)`` of its bin — an independence-assuming
log-probability. Out-of-range points get the density of the nearest edge bin
scaled down, so unseen extremes still score high.
"""

from __future__ import annotations

import numpy as np

from repro.outliers.base import BaseDetector

#: Histogram bins per feature.
_N_BINS = 10
#: Density floor as a fraction of the minimum nonzero density, used for
#: empty bins and out-of-range values.
_TOL = 0.5


class HBOS(BaseDetector):
    """HBOS detector."""

    def _fit(self, X: np.ndarray) -> None:
        n, d = X.shape
        self.bin_edges_ = []
        self.densities_ = []
        for j in range(d):
            counts, edges = np.histogram(X[:, j], bins=_N_BINS)
            width = edges[1] - edges[0]
            if width <= 0:
                # Constant feature: uninformative, uniform density.
                density = np.ones(_N_BINS)
            else:
                density = counts / (n * width)
            floor = _TOL * (density[density > 0].min() if (density > 0).any() else 1.0)
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
            idx = np.clip(idx, 0, _N_BINS - 1)
            dens = density[idx]
            # Penalize points outside the training range.
            out = (X[:, j] < edges[0]) | (X[:, j] > edges[-1])
            dens = np.where(out, dens * _TOL, dens)
            score += -np.log(dens + 1e-300)
        return score
