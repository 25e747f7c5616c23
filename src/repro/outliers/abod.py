"""Angle-Based Outlier Detection (Kriegel et al., KDD 2008), fast variant.

FastABOD: for each point, consider its k nearest neighbors and compute the
variance over neighbor pairs of the angle between the difference vectors,
weighted by the product of their squared lengths. Inliers see their
neighborhood spread around them (high angle variance); outliers sit outside
the data, so all neighbors lie in a narrow cone (low variance). The outlier
score is the negated ABOF so that higher = more anomalous.

Scoring is fully batched: one ``(n, k, d)`` difference tensor yields every
pairwise dot product and weight via ``einsum``, the upper-triangle pairs are
masked, and all n angle variances come out of a handful of array ops —
no per-sample Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.learn.neighbors import NearestNeighbors
from repro.outliers.base import BaseDetector, iter_row_blocks

#: Neighborhood size (the full-pairs original is O(n³); the kNN variant is
#: the one PyOD evaluates).
_N_NEIGHBORS = 10


def _batched_abof(X: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Angle-based outlier factor of every row of ``X`` at once.

    ``neighbors`` is ``(n, k, d)``: each row's k neighbor coordinates.
    Duplicated points (zero difference vectors) are masked per row, matching
    the degenerate-pair handling of the original per-sample loop.
    """
    n, k, _ = neighbors.shape
    diffs = neighbors - X[:, None, :]  # (n, k, d)
    sq_norms = np.einsum("nkd,nkd->nk", diffs, diffs)  # |a|^2
    valid = sq_norms > 1e-24
    dots = np.einsum("nid,njd->nij", diffs, diffs)  # <a, b>
    weight = sq_norms[:, :, None] * sq_norms[:, None, :]  # |a|^2 |b|^2
    pair_ok = (
        valid[:, :, None] & valid[:, None, :] & np.triu(np.ones((k, k), dtype=bool), 1)
    )
    safe_w = np.where(pair_ok, weight, 1.0)
    ratios = dots / safe_w  # <a,b>/(|a|^2|b|^2)
    w = np.where(pair_ok, 1.0 / np.sqrt(safe_w), 0.0)  # 1/(|a||b|)
    w_sum = w.sum(axis=(1, 2))
    ok = w_sum > 0
    denom = np.where(ok, w_sum, 1.0)
    mean = np.einsum("nij,nij->n", w, ratios) / denom
    var = np.einsum("nij,nij->n", w, (ratios - mean[:, None, None]) ** 2) / denom
    return np.where(ok, var, 0.0)


class ABOD(BaseDetector):
    """FastABOD with a ``_N_NEIGHBORS``-nearest-neighbor neighborhood."""

    def _fit(self, X: np.ndarray) -> None:
        k = min(_N_NEIGHBORS, X.shape[0] - 1)
        if k < 2:
            raise ValueError("ABOD needs at least 2 neighbors (3 samples).")
        self.nn_ = NearestNeighbors(n_neighbors=k).fit(X)
        self._k = k

    def _score(self, X: np.ndarray) -> np.ndarray:
        _, idx = self._kneighbors(self.nn_, X)
        train = self.nn_._fit_X_
        n, k = idx.shape
        scores = np.empty(n)
        for s, e in iter_row_blocks(n, k * k):
            scores[s:e] = -_batched_abof(X[s:e], train[idx[s:e]])
        return scores
