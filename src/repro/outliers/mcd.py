"""Minimum Covariance Determinant outlier detection (Hardin & Rocke, 2004).

FastMCD (Rousseeuw & Van Driessen, 1999) with concentration steps: find the
h-subset whose covariance determinant is minimal, then score points by the
Mahalanobis distance under the robust (reweighted) location/scatter.

The fit is batched: all ``_N_TRIALS`` concentrate at once as stacked
``(T, h, d)`` subsets — covariances via one stacked matmul, Mahalanobis
distances via one batched ``np.linalg.solve``, per-trial subset selection via
a row-wise argsort — and trials whose h-subset has reached a fixed point are
masked out of subsequent C-steps (a converged trial's recomputation is a
no-op by construction). The initial subsets are drawn with the same
sequential ``rng.choice`` stream as the historical per-trial loop, so a
given seed concentrates the same starting subsets.
"""

from __future__ import annotations

import numpy as np

from repro.outliers.base import BaseDetector
from repro.utils.validation import check_random_state

#: Random initial subsets to concentrate, and concentration steps per trial.
_N_TRIALS = 10
_N_CSTEPS = 5


def _chi2_ppf(q: float, df: int):
    """``scipy.stats.chi2.ppf(q, df)`` by the kernel it calls, bit for bit."""
    from scipy.special import gammaincinv

    return 2 * gammaincinv(df / 2, q)


def _det_cov(X: np.ndarray):
    mean = X.mean(axis=0)
    diff = X - mean
    cov = diff.T @ diff / max(X.shape[0] - 1, 1)
    # Regularize to keep the determinant and inverse finite.
    cov[np.diag_indices_from(cov)] += 1e-9
    sign, logdet = np.linalg.slogdet(cov)
    return mean, cov, logdet if sign > 0 else np.inf


def _det_cov_batched(S: np.ndarray):
    """Per-trial mean/cov/logdet for stacked subsets ``S`` of shape (T, m, d)."""
    m = S.shape[1]
    mean = S.mean(axis=1)  # (T, d)
    diff = S - mean[:, None, :]
    cov = diff.transpose(0, 2, 1) @ diff / max(m - 1, 1)  # (T, d, d)
    di = np.arange(S.shape[2])
    cov[:, di, di] += 1e-9
    sign, logdet = np.linalg.slogdet(cov)
    return mean, cov, np.where(sign > 0, logdet, np.inf)


def _mahalanobis_sq(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    diff = X - mean
    try:
        sol = np.linalg.solve(cov, diff.T)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(cov, diff.T, rcond=None)[0]
    return np.einsum("ij,ji->i", diff, sol)


def _mahalanobis_sq_batched(
    X: np.ndarray, mean: np.ndarray, cov: np.ndarray
) -> np.ndarray:
    """(T, n) squared Mahalanobis distances of all rows under each trial.

    Inverts the (regularized, hence nonsingular) trial covariances once and
    applies them with one batched matmul — ``solve`` with an (T, d, n)
    right-hand side spends most of its time on Fortran-order copies here.
    """
    diff = X[None, :, :] - mean[:, None, :]  # (T, n, d)
    try:
        inv = np.linalg.inv(cov)  # (T, d, d)
    except np.linalg.LinAlgError:
        # A singular trial poisons the batched inverse; fall back per trial
        # (the lstsq path inside _mahalanobis_sq handles the singular ones).
        return np.stack(
            [_mahalanobis_sq(X, mean[t], cov[t]) for t in range(mean.shape[0])]
        )
    return np.einsum("tnd,tnd->tn", diff @ inv, diff)


class MCD(BaseDetector):
    """FastMCD-based detector.

    The h-subset is the breakdown-optimal h = (n + d + 1) / 2;
    ``random_state`` seeds the initial subsets.
    """

    def __init__(self, contamination: float = 0.1, random_state=None):
        super().__init__(contamination=contamination)
        self.random_state = random_state

    def _fit(self, X: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        n, d = X.shape
        h = min(max((n + d + 1) // 2, d + 1), n)
        T = _N_TRIALS
        m0 = min(max(d + 1, 2), n)
        # Sequential draws keep the RNG stream identical to the per-trial loop.
        init = np.stack([rng.choice(n, size=m0, replace=False) for _ in range(T)])
        mean, cov, logdet = _det_cov_batched(X[init])

        active = np.arange(T)
        subset = np.full((T, h), -1, dtype=np.int64)
        for _ in range(_N_CSTEPS):
            dist = _mahalanobis_sq_batched(X, mean[active], cov[active])
            new_subset = np.argsort(dist, axis=1)[:, :h]  # (A, h)
            # A trial whose h-subset is a fixed point (as a set) has
            # converged: re-concentrating it cannot change mean/cov/logdet.
            settled = np.all(
                np.sort(new_subset, axis=1) == np.sort(subset[active], axis=1),
                axis=1,
            )
            subset[active] = new_subset
            mean_a, cov_a, logdet_a = _det_cov_batched(X[new_subset[~settled]])
            moving = active[~settled]
            mean[moving] = mean_a
            cov[moving] = cov_a
            logdet[moving] = logdet_a
            active = moving
            if active.size == 0:
                break

        best = int(np.argmin(logdet))
        mean, cov = mean[best], cov[best]
        # Reweighting step: consistency-corrected scatter.
        dist = _mahalanobis_sq(X, mean, cov)
        cutoff = _chi2_ppf(0.975, d)
        med = np.median(dist)
        correction = med / max(_chi2_ppf(0.5, d), 1e-12)
        cov = cov * correction
        inliers = _mahalanobis_sq(X, mean, cov) <= cutoff
        if inliers.sum() > d + 1:
            mean, cov, _ = _det_cov(X[inliers])
        self.location_ = mean
        self.covariance_ = cov

    def _score(self, X: np.ndarray) -> np.ndarray:
        return _mahalanobis_sq(X, self.location_, self.covariance_)
