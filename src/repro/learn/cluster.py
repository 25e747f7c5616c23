"""Lloyd's k-means with k-means++ seeding (used by the CBLOF detector)."""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator
from repro.utils.validation import (
    check_array,
    check_positive_int,
    check_random_state,
)

#: k-means++ restarts, and the Lloyd iteration cap and the inertia/center
#: shift tolerance that stops a restart.
_N_INIT = 3
_MAX_ITER = 100
_TOL = 1e-6


def _kmeans_plus_plus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centers."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points identical to chosen centers; fill with copies.
            centers[j:] = X[int(rng.integers(n))]
            return centers
        probs = closest_sq / total
        nxt = int(rng.choice(n, p=probs))
        centers[j] = X[nxt]
        d2 = np.sum((X - centers[j]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, d2)
    return centers


class KMeans(BaseEstimator):
    """Lloyd iterations from a k-means++ seed; best of ``_N_INIT`` restarts."""

    def __init__(self, n_clusters: int = 8, random_state=None):
        self.n_clusters = n_clusters
        self.random_state = random_state

    def _lloyd_batched(self, X: np.ndarray, centers: np.ndarray):
        """Run Lloyd iterations for all ``_N_INIT`` restarts at once.

        ``centers`` is the (R, k, d) stack of k-means++ seeds. Every
        iteration computes one (n, R·k) GEMM for all restarts' distances,
        updates each restart's centers with per-feature ``bincount`` sums
        (the per-cluster member loop collapsed), and freezes restarts whose
        inertia/center shift has converged so they drop out of later
        iterations.
        """
        n, d = X.shape
        R, k, _ = centers.shape
        x2 = np.sum(X**2, axis=1)
        labels = np.zeros((R, n), dtype=np.int64)
        inertia = np.full(R, np.inf)
        active = np.arange(R)
        offs = np.arange(R, dtype=np.int64)[:, None] * k
        for _ in range(_MAX_ITER):
            A = active.size
            cen = centers[active]  # (A, k, d)
            # Squared distances of every row to every active restart's
            # centers in one GEMM: (n, A*k) -> (A, n, k).
            prod = X @ cen.reshape(A * k, d).T
            d2 = (
                x2[None, :, None]
                - 2.0 * prod.T.reshape(A, k, n).transpose(0, 2, 1)
                + np.sum(cen**2, axis=2)[:, None, :]
            )
            lbl = np.argmin(d2, axis=2)  # (A, n)
            labels[active] = lbl
            min_d2 = np.take_along_axis(d2, lbl[:, :, None], axis=2)[:, :, 0]
            new_inertia = min_d2.sum(axis=1)
            # Per-cluster means via offset bincount, one call per feature.
            flat = (lbl + offs[:A]).ravel()
            counts = np.bincount(flat, minlength=A * k).reshape(A, k)
            sums = np.empty((A, k, d))
            for f in range(d):
                w = np.broadcast_to(X[:, f], (A, n)).ravel()
                sums[:, :, f] = np.bincount(
                    flat, weights=w, minlength=A * k
                ).reshape(A, k)
            new_cen = np.where(
                (counts > 0)[:, :, None], sums / np.maximum(counts, 1)[:, :, None], cen
            )
            empty = counts == 0
            if np.any(empty):
                # Re-seed empty clusters at the restart's farthest point.
                far = np.argmax(min_d2, axis=1)  # (A,)
                e_i, e_j = np.nonzero(empty)
                new_cen[e_i, e_j] = X[far[e_i]]
            shift = np.max(np.abs(new_cen - cen), axis=(1, 2))
            centers[active] = new_cen
            done = (np.abs(inertia[active] - new_inertia) <= _TOL) | (shift <= _TOL)
            inertia[active] = new_inertia
            active = active[~done]
            if active.size == 0:
                break
        return centers, labels, inertia

    def fit(self, X, y=None) -> "KMeans":
        X = check_array(X)
        check_positive_int(self.n_clusters, "n_clusters")
        if X.shape[0] < self.n_clusters:
            raise ValueError(f"n_samples={X.shape[0]} < n_clusters={self.n_clusters}.")
        rng = check_random_state(self.random_state)
        # Seed every restart upfront with the same sequential RNG stream the
        # historical restart loop consumed; the Lloyd iterations themselves
        # draw no randomness and run batched.
        seeds = np.stack(
            [_kmeans_plus_plus(X, self.n_clusters, rng) for _ in range(_N_INIT)]
        )
        centers, labels, inertia = self._lloyd_batched(X, seeds)
        best = int(np.argmin(inertia))
        self.cluster_centers_ = centers[best]
        self.labels_ = labels[best]
        self.inertia_ = float(inertia[best])
        self.n_features_in_ = X.shape[1]
        return self
