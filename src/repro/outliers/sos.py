"""Stochastic Outlier Selection (Janssens et al., 2012).

Each point gets a Gaussian affinity to the others whose bandwidth is tuned
by binary search so its binding distribution has a fixed perplexity. The
outlier probability of a point is the product over the others of (1 − their
binding probability to it) — nobody "chooses" an outlier as a neighbor.

The per-row perplexity bisection runs simultaneously for all rows
(t-SNE-style): every row's beta advances each iteration and converged rows
are masked out, so the whole binding matrix costs ``max_iter`` vectorized
sweeps instead of n independent Python-level searches.

Two binding backends share that bisection core, chosen by matrix size:

- dense — the exact (n, n) affinity matrix of the paper, below
  ``_KNN_MIN_ROWS`` rows (tier-1 scale stays exact);
- kNN — each row binds only to its ``_KNN_NEIGHBORS`` nearest points
  (exact kNN query through the shared :class:`~repro.learn.neighbors.
  NeighborCache`), an O(n·k) matrix instead of O(n²). Bindings beyond
  ~3× the perplexity carry exponentially small mass, so the truncation
  changes scores negligibly while unlocking checkpoint sizes where the
  dense matrix would not fit.
"""

from __future__ import annotations

import numpy as np

from repro.learn.neighbors import NearestNeighbors
from repro.outliers.base import BaseDetector

#: SOS switches to the kNN backend at this many rows.
_KNN_MIN_ROWS = 1024
#: Effective neighborhood size of every row's binding distribution.
_PERPLEXITY = 4.5
#: Candidate bindings per row for the kNN backend, ceil(3 × perplexity): the
#: binding mass beyond that is exponentially small at the target perplexity.
_KNN_NEIGHBORS = 14


def _bind_rows(
    d: np.ndarray, perplexity: float, tol: float = 1e-4, max_iter: int = 60
) -> np.ndarray:
    """Row-stochastic binding probabilities for a (n, m) distance² matrix.

    The bisection core shared by both backends: column j of row i is the
    probability that point i binds to its j-th listed candidate (all other
    points for the dense backend, the k nearest for the kNN backend).
    """
    n = d.shape[0]
    log_perp = np.log(perplexity)
    beta = np.ones(n)
    beta_lo = np.zeros(n)
    beta_hi = np.full(n, np.inf)
    P = np.zeros_like(d)
    active = np.ones(n, dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        aff = np.exp(-d[rows] * beta[rows][:, None])
        s = aff.sum(axis=1)
        pos = s > 0
        p = np.zeros_like(aff)
        p[pos] = aff[pos] / s[pos, None]
        h = -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=1)  # entropy
        h[~pos] = 0.0
        diff = h - log_perp
        P[rows] = p
        converged = np.abs(diff) < tol
        active[rows[converged]] = False
        # Bisection step for the rows still chasing the target perplexity —
        # same update rule as the scalar search, advanced for all at once.
        upd = rows[~converged]
        if upd.shape[0] == 0:
            continue
        sharpen = diff[~converged] > 0  # entropy too high -> raise beta
        b = beta[upd]
        hi_rows = upd[sharpen]
        beta_lo[hi_rows] = b[sharpen]
        finite_hi = np.isfinite(beta_hi[hi_rows])
        beta[hi_rows] = np.where(
            finite_hi, 0.5 * (b[sharpen] + beta_hi[hi_rows]), b[sharpen] * 2.0
        )
        lo_rows = upd[~sharpen]
        beta_hi[lo_rows] = b[~sharpen]
        beta[lo_rows] = 0.5 * (b[~sharpen] + beta_lo[lo_rows])
    return P


def _binding_probabilities(
    D2: np.ndarray, perplexity: float, tol: float = 1e-4, max_iter: int = 60
) -> np.ndarray:
    """Row-stochastic binding matrix B with target perplexity per row."""
    n = D2.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    d = D2[off_diag].reshape(n, n - 1)
    P = _bind_rows(d, perplexity, tol=tol, max_iter=max_iter)
    B = np.zeros((n, n))
    B[off_diag] = P.ravel()
    return B


class SOS(BaseDetector):
    """Stochastic outlier selection.

    SOS is transductive: scores are only meaningful for points that were part
    of the affinity computation. Callers scoring a subset of the training
    data should slice ``decision_scores_`` instead of calling
    ``decision_function`` on the subset (which would duplicate those points
    in the joint affinity matrix); the ``transductive`` flag advertises this.
    """

    transductive = True

    def _fit(self, X: np.ndarray) -> None:
        self._train_X_ = X

    def _sos_scores_dense(self, X: np.ndarray) -> np.ndarray:
        D2 = (
            np.sum(X**2, axis=1)[:, None]
            - 2.0 * X @ X.T
            + np.sum(X**2, axis=1)[None, :]
        )
        np.maximum(D2, 0.0, out=D2)
        perp = min(_PERPLEXITY, X.shape[0] - 1)
        B = _binding_probabilities(D2, perp)
        # P(outlier_j) = prod_i (1 - b_ij)
        with np.errstate(divide="ignore"):
            log1m = np.log(np.maximum(1.0 - B, 1e-12))
        return np.exp(log1m.sum(axis=0))

    def _sos_scores_knn(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        k = min(_KNN_NEIGHBORS, n - 1)
        nn = NearestNeighbors(n_neighbors=k).fit(X)
        dist, idx = self._kneighbors(nn, X)  # self excluded
        perp = min(_PERPLEXITY, k)
        P = _bind_rows(dist**2, perp)  # (n, k)
        # Column accumulation of log(1 - b_ij) over the sparse bindings;
        # absent entries bind with probability 0 and contribute log(1) = 0.
        with np.errstate(divide="ignore"):
            log1m = np.log(np.maximum(1.0 - P, 1e-12))
        col_sum = np.bincount(idx.ravel(), weights=log1m.ravel(), minlength=n)
        return np.exp(col_sum)

    def _sos_scores(self, X: np.ndarray) -> np.ndarray:
        if X.shape[0] >= _KNN_MIN_ROWS:
            return self._sos_scores_knn(X)
        return self._sos_scores_dense(X)

    def _score(self, X: np.ndarray) -> np.ndarray:
        # SOS is transductive: score points within the joint dataset so
        # affinities reflect both training and query points.
        if X.shape == self._train_X_.shape and np.array_equal(X, self._train_X_):
            return self._sos_scores(X)
        joint = np.vstack([self._train_X_, X])
        return self._sos_scores(joint)[self._train_X_.shape[0] :]
