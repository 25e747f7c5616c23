"""PCA-based outlier detection (Shyu et al., 2003).

Project standardized data onto the principal axes and sum the squared
projections scaled by the inverse eigenvalues — a Mahalanobis-style score in
which deviation along minor (low-variance) components dominates, which is
where correlation-breaking anomalies show up.
"""

from __future__ import annotations

import numpy as np

from repro.outliers.base import BaseDetector


class PCADetector(BaseDetector):
    """Principal-component outlier scores over every component."""

    def _fit(self, X: np.ndarray) -> None:
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.std_ = std
        Z = (X - self.mean_) / self.std_
        cov = Z.T @ Z / max(Z.shape[0] - 1, 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        self.eigenvalues_ = np.maximum(eigvals[order], 1e-12)
        self.components_ = eigvecs[:, order]

    def _score(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self.mean_) / self.std_
        proj = Z @ self.components_
        return np.sum(proj**2 / self.eigenvalues_, axis=1)
