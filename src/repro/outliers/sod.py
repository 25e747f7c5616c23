"""Subspace Outlier Detection (Kriegel et al., PAKDD 2009).

For each point, build a reference set from shared-nearest-neighbor
similarity, find the axis-parallel subspace in which the reference set
has low variance, and score the point by its normalized distance to the
reference mean within that subspace.

The SNN similarities and subspace variances are computed for all points at
once: a boolean membership matrix turns the pairwise kNN-list intersections
into one gather-and-sum, and the reference-set statistics reduce over a
``(n, l, d)`` tensor.
"""

from __future__ import annotations

import numpy as np

from repro.learn.neighbors import NearestNeighbors
from repro.outliers.base import BaseDetector, iter_row_blocks

#: Candidate neighbors for SNN similarity, and the reference-set size.
_N_NEIGHBORS = 20
_REF_SET = 10
#: A dimension is kept when its reference-set variance is below ``_ALPHA``
#: times the mean per-dimension variance.
_ALPHA = 0.8


class SOD(BaseDetector):
    """Subspace outlier degree."""

    def _fit(self, X: np.ndarray) -> None:
        k = min(_N_NEIGHBORS, X.shape[0] - 1)
        if k < 1:
            raise ValueError("SOD needs at least 2 samples.")
        self._k, self._l = k, min(_REF_SET, k)
        self.nn_ = NearestNeighbors(n_neighbors=k).fit(X)
        _, self._train_knn_ = self.nn_.kneighbors()

    def _batched_sod(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Subspace outlier degrees for rows of ``X`` with kNN lists ``idx``."""
        train = self.nn_._fit_X_
        n, k = idx.shape
        rows = np.arange(n)
        # SNN similarity between each query's kNN list and each candidate's:
        # membership[i, t] marks t ∈ kNN(i), so gathering it at the
        # candidates' own kNN lists and summing counts the shared neighbors.
        candidates = np.sort(idx, axis=1)  # = unique(idx[i]): kNN lists are
        membership = np.zeros((n, train.shape[0]), dtype=bool)  # duplicate-free
        membership[rows[:, None], idx] = True
        cand_knn = self._train_knn_[candidates]  # (n, k, k_t)
        sims = membership[rows[:, None, None], cand_knn].sum(axis=2)
        order = np.argsort(sims, axis=1)[:, ::-1]
        ref_idx = np.take_along_axis(candidates, order, axis=1)[:, : self._l]
        ref = train[ref_idx]  # (n, l, d)
        mean = ref.mean(axis=1)
        var = ref.var(axis=1)
        mean_var = var.mean(axis=1)
        keep = var < _ALPHA * mean_var[:, None]
        n_kept = keep.sum(axis=1)
        sq_dist = np.einsum("nd,nd->n", (X - mean) ** 2, keep)
        return np.where(n_kept > 0, np.sqrt(sq_dist) / np.maximum(n_kept, 1), 0.0)

    def _score(self, X: np.ndarray) -> np.ndarray:
        _, idx = self._kneighbors(self.nn_, X)
        n = X.shape[0]
        scores = np.empty(n)
        for s, e in iter_row_blocks(n, self.nn_._fit_X_.shape[0]):
            scores[s:e] = self._batched_sod(X[s:e], idx[s:e])
        return scores
