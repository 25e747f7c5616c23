"""Connectivity-based Outlier Factor (Tang et al., PAKDD 2002).

COF replaces LOF's density with *chaining distance*: the average of the
weighted edge costs of the set-based nearest path (SBN trail) linking a point
to its k neighbors. Points in low-density *patterns* (e.g. lines) keep low
COF while genuine outliers score high.

The SBN trails of all n points are built simultaneously: Prim's greedy
construction runs over a batched ``(n, k+1, k+1)`` distance tensor, looping
over the k trail steps instead of the n points.
"""

from __future__ import annotations

import numpy as np

from repro.learn.neighbors import NearestNeighbors
from repro.outliers.base import BaseDetector, iter_row_blocks

#: Neighborhood size k.
_N_NEIGHBORS = 20


def _batched_chaining(points: np.ndarray) -> np.ndarray:
    """Average chaining distance of the SBN trail rooted at each row.

    ``points`` is (n, k+1, d): every row holds one point followed by its k
    neighbors. The trail greedily connects the nearest unvisited neighbor to
    the *visited set* (Prim's order) — advanced for all rows per step; edge
    costs are weighted by position per the COF paper:
    ac-dist = Σ_{i=1..r} (2(r+1-i)/(r(r+1))) · cost_i.
    """
    n, m, _ = points.shape
    r = m - 1
    if r < 1:
        return np.zeros(n)
    sq = np.einsum("nmd,nmd->nm", points, points)
    D = sq[:, :, None] - 2.0 * np.einsum("nid,njd->nij", points, points)
    D += sq[:, None, :]
    np.maximum(D, 0.0, out=D)
    np.sqrt(D, out=D)
    rows = np.arange(n)
    visited = np.zeros((n, m), dtype=bool)
    visited[:, 0] = True
    costs = np.empty((n, r))
    dist_to_set = D[:, 0, :].copy()
    for step in range(r):
        dist_to_set[visited] = np.inf
        j = np.argmin(dist_to_set, axis=1)
        costs[:, step] = dist_to_set[rows, j]
        visited[rows, j] = True
        np.minimum(dist_to_set, D[rows, j, :], out=dist_to_set)
    weights = 2.0 * (r + 1 - np.arange(1, r + 1)) / (r * (r + 1))
    return costs @ weights


def _chaining_for(X: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Chaining distances for rows of ``X`` given (n, k, d) neighbor coords."""
    n, k, _ = neighbors.shape
    out = np.empty(n)
    for s, e in iter_row_blocks(n, (k + 1) * (k + 1)):
        P = np.concatenate([X[s:e, None, :], neighbors[s:e]], axis=1)
        out[s:e] = _batched_chaining(P)
    return out


class COF(BaseDetector):
    """Connectivity-based outlier factor over ``_N_NEIGHBORS`` neighbors."""

    def _fit(self, X: np.ndarray) -> None:
        k = min(_N_NEIGHBORS, X.shape[0] - 1)
        if k < 1:
            raise ValueError("COF needs at least 2 samples.")
        self._k = k
        self.nn_ = NearestNeighbors(n_neighbors=k).fit(X)
        _, idx = self.nn_.kneighbors()
        self._ac_train_ = _chaining_for(X, X[idx])

    def _score(self, X: np.ndarray) -> np.ndarray:
        _, idx = self._kneighbors(self.nn_, X)
        train = self.nn_._fit_X_
        ac = _chaining_for(X, train[idx])
        neighbor_ac = self._ac_train_[idx].mean(axis=1)
        return ac / np.maximum(neighbor_ac, 1e-12)
