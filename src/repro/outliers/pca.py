"""PCA-based outlier detection (Shyu et al., 2003).

Project standardized data onto the principal axes and sum the squared
projections scaled by the inverse eigenvalues — a Mahalanobis-style score in
which deviation along minor (low-variance) components dominates, which is
where correlation-breaking anomalies show up.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.outliers.base import BaseDetector


class PCADetector(BaseDetector):
    """Principal-component outlier scores.

    Parameters
    ----------
    n_components : int or None
        Number of leading components to keep; None keeps all.
    """

    def __init__(self, n_components=None, contamination: float = 0.1):
        super().__init__(contamination=contamination)
        self.n_components = n_components

    def _fit(self, X: np.ndarray) -> None:
        d = X.shape[1]
        k = d if self.n_components is None else self.n_components
        if not (isinstance(k, numbers.Integral) and 1 <= k <= d):
            raise ValueError(
                f"n_components must be None or an int in [1, {d}], got {k!r}."
            )
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.std_ = std
        Z = (X - self.mean_) / self.std_
        cov = Z.T @ Z / max(Z.shape[0] - 1, 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.maximum(eigvals[order], 1e-12)
        eigvecs = eigvecs[:, order]
        self.eigenvalues_ = eigvals[:k]
        self.components_ = eigvecs[:, :k]

    def _score(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self.mean_) / self.std_
        proj = Z @ self.components_
        return np.sum(proj**2 / self.eigenvalues_, axis=1)
