"""NURD's calibration term (paper §4.2, Eq. 3 and Algorithm 1 lines 4–6).

The calibration decides — from feature-space geometry alone, never from the
unknown latency distribution — whether the job's straggler threshold is
"relatively small" (left of Fig. 1: long right tail, p90 below half the max
latency) or "relatively large" (right of Fig. 1). It compares the centroid of
finished tasks ``c_fin`` with the centroid of still-running tasks ``c_run``:

    rho   = ||c_fin||_2 / ||c_run - c_fin||_2
    delta = 1 / (1 + rho) - alpha

``rho <= 1`` means running tasks look very different from finished ones
(potential stragglers are far away in feature space), so predictions are
easily pushed over the threshold and delta is made *large* to suppress false
positives. ``rho > 1`` means the two groups look similar, so delta is made
*small* (negative) to shrink the weight and dilate predictions enough to
catch true stragglers.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_array


def compute_rho(X_finished, X_running) -> float:
    """Latency-threshold magnitude indicator ρ (Algorithm 1, line 5).

    Parameters
    ----------
    X_finished : array-like of shape (n_fin, d)
        Features of tasks that have already finished (non-stragglers).
    X_running : array-like of shape (n_run, d)
        Features of tasks still running.

    Returns
    -------
    float
        ``||c_fin|| / ||c_run - c_fin||``. When the centroids coincide the
        denominator is floored at a tiny epsilon, yielding a very large ρ —
        the "stragglers look like non-stragglers" regime, which is the
        correct limit.
    """
    X_fin = check_array(X_finished)
    X_run = check_array(X_running)
    if X_fin.shape[1] != X_run.shape[1]:
        raise ValueError(
            f"Feature dimension mismatch: {X_fin.shape[1]} vs {X_run.shape[1]}."
        )
    c_fin = X_fin.mean(axis=0)
    c_run = X_run.mean(axis=0)
    denom = float(np.linalg.norm(c_run - c_fin))
    denom = max(denom, 1e-12)
    return float(np.linalg.norm(c_fin)) / denom


def compute_delta(rho: float, alpha: float = 0.5, *, rho_max: float) -> float:
    """Calibration term δ = 1/(1+ρ) − α (Eq. 3); lies in (−α, 1−α).

    ``alpha`` must lie in (0, 1), where δ changes sign at ρ = 1/α − 1. At
    α ≥ 1, δ ≤ 0 at every ρ, so calibration could never suppress a
    prediction; at α ≤ 0, δ > 0 at every ρ, so it could never dilate one.

    ``rho_max`` caps ρ before applying Eq. 3. The ratio estimator ρ is
    heavy-tailed: when a job's stragglers have no feature signature the
    centroid separation collapses and ρ explodes, driving δ → −α and
    flooding the predictions. Capping ρ bounds δ below by
    ``1/(1+rho_max) − α`` (−1/22 at NURD's ``rho_max=1.2`` and α = 0.5),
    which preserves the paper's regime behavior for well-estimated ρ while
    keeping the degenerate case merely aggressive instead of saturated. Set
    ``rho_max=np.inf`` for the paper's exact formula. A NaN ``rho_max`` is
    rejected: ``min(ρ, nan)`` is ρ, so it would switch the cap off silently.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1); got {alpha!r}.")
    if rho < 0:
        raise ValueError("rho must be non-negative.")
    if not rho_max > 0:
        raise ValueError(f"rho_max must be positive (inf: no cap); got {rho_max!r}.")
    return 1.0 / (1.0 + min(rho, rho_max)) - alpha


def check_eps(eps) -> None:
    """Raise a ``ValueError`` naming ``eps`` unless it lies in (0, 1].

    ε floors the weight ``w = max(ε, min(z + δ, 1))``: at ε ≤ 0 the adjusted
    prediction ``ŷ / w`` can be infinite, and at ε > 1 the weight exceeds 1
    and shrinks every prediction. A NaN or infinite ε fails too: with it, NURD
    flags nothing.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1]; got {eps!r}.")


def clip_weight(z, delta: float, eps: float = 0.05) -> np.ndarray:
    """Final weighting function w = max(ε, min(z + δ, 1)) (Alg. 1, line 15).

    Parameters
    ----------
    z : array-like
        Propensity scores in [0, 1].
    delta : float
        Calibration term from :func:`compute_delta`.
    eps : float
        Minimum weight ε in (0, 1] (:func:`check_eps`); keeps the adjusted
        prediction finite.
    """
    check_eps(eps)
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(eps, np.minimum(z + delta, 1.0))
