"""Support vector machines.

``LinearSVC`` (Pegasos-style SGD on the hinge loss) backs the Wrangler
baseline and the bagging PU learner. ``OneClassSVM`` approximates the RBF
one-class SVM of Schölkopf et al. (2001) with random Fourier features
(Rahimi & Recht, 2007) followed by the linear one-class objective solved by
projected SGD — this keeps training O(n·D) while preserving the
nonlinear decision boundary the OCSVM baseline needs.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_n_features,
    check_random_state,
    check_X_y,
)

#: Pegasos' inverse regularization strength and its epochs over the data.
_SVC_C = 1.0
_SVC_EPOCHS = 30


class LinearSVC(BaseEstimator):
    """Linear SVM trained with Pegasos (SGD on the regularized hinge loss).

    The fit is per-sample Pegasos with ``C = _SVC_C`` over ``_SVC_EPOCHS``
    epochs, run by the lockstep kernel :func:`_pegasos_lockstep` with one
    lane. ``random_state`` seeds the per-epoch shuffles.
    """

    def __init__(self, random_state=None):
        self.random_state = random_state

    def fit(self, X, y) -> "LinearSVC":
        X, y = check_X_y(X, y, y_numeric=False)
        targets = self._targets(X, y)
        if targets is not None:
            _pegasos_lockstep([self], X[None], [targets])
        return self

    def _targets(self, X, y):
        """Record the classes; return the ±1 targets, or None once a
        single-class ``y`` has its constant model."""
        classes = np.unique(y)
        if classes.shape[0] > 2:
            raise ValueError("LinearSVC supports binary labels only.")
        self.classes_ = classes
        self.n_features_in_ = X.shape[1]
        if classes.shape[0] == 1:
            self._single_class_ = classes[0]
            self.coef_ = np.zeros(X.shape[1])
            self.intercept_ = 0.0
            return None
        self._single_class_ = None
        return np.where(y == classes[-1], 1.0, -1.0)

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
        if self._single_class_ is not None:
            fill = np.inf if self._single_class_ == self.classes_[-1] else -np.inf
            return np.full(X.shape[0], fill)
        return X @ self.coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        if getattr(self, "_single_class_", None) is not None:
            X = check_array(X)
            return np.full(X.shape[0], self._single_class_)
        scores = self.decision_function(X)
        return self.classes_[(scores >= 0).astype(int)]


def _pegasos_lockstep(models, X, targets) -> None:
    """Fit ``LinearSVC`` ``models[k]`` on ``X[k]`` by per-sample Pegasos, K
    at once; ``X`` is (K, n, d) and ``targets[k]`` is ``models[k]._targets``.

    All lanes take the same step, η and λ; each shuffles with its own,
    unshared ``random_state``. Every lane does a lone fit's arithmetic, so
    each model is bit-identical to it: a stacked (K,1,d)@(K,d,1) ``matmul``
    sends each vector pair to the dot ``x @ w`` uses, the hinge rows η·t·x
    are the same elementwise products built one epoch at a time, and
    updates and projections touch only the lanes they apply to.

    The ball test ``sqrt(w·w) > radius`` is ``w·w > r2`` (see
    :func:`_largest_square_within`), and a step in which no lane violates
    skips it, since there it cannot come out true. Such a step only
    multiplies W by the decay (s-1)/s. Before it, W passed the last test or
    was just projected, so its norm is at most radius·(1 + (d/2 + 3)u),
    u = 2⁻⁵³; the shrink by 1/s outweighs that and the rounding of the decay
    and of the next w·w, (d + 6)u in all, while s < 1 / ((d + 6)u): over
    10¹⁴ steps for d ≤ 20. A NaN lane stays NaN and never tests true.
    """
    K, n, d = X.shape
    t = np.stack(targets)
    rngs = [check_random_state(m.random_state) for m in models]
    lam = 1.0 / (_SVC_C * n)
    # Pegasos projects onto the ball of radius 1/sqrt(lam).
    radius = 1.0 / np.sqrt(lam)
    r2 = _largest_square_within(radius)
    W = np.zeros((K, d))
    w_row, w_col = W[:, None, :], W[:, :, None]
    # Per-lane scalars are (K, 1) columns, so they broadcast against W.
    b, scale, dot = np.zeros((K, 1)), np.empty((K, 1)), np.empty((K, 1, 1))
    dots = dot[:, :, 0]
    lanes = np.arange(K)[:, None]
    for epoch in range(_SVC_EPOCHS):
        perm = np.stack([rng.permutation(n) for rng in rngs])
        # Step-major views: row i of every lane is one basic index away.
        Xs = X[lanes, perm].transpose(1, 0, 2)
        ts = t[lanes, perm].T[:, :, None]
        etas = 1.0 / (lam * np.arange(epoch * n + 1, (epoch + 1) * n + 1))
        decays = (1.0 - etas * lam).tolist()
        coefs = etas[:, None, None] * ts
        hinge_rows = coefs * Xs
        for x_row, t_i, decay, coef, row in zip(
            Xs[:, :, None, :], ts, decays, coefs, hinge_rows
        ):
            np.matmul(x_row, w_col, out=dot)
            margin = t_i * (dots + b)
            W *= decay
            viol = margin < 1.0
            if not np.count_nonzero(viol):
                continue
            # ``where`` leaves the other lanes' bits untouched.
            np.add(W, row, out=W, where=viol)
            np.add(b, coef, out=b, where=viol)
            np.matmul(w_row, w_col, out=dot)
            over = dots > r2
            if np.count_nonzero(over):
                np.divide(radius, np.sqrt(dots), out=scale, where=over)
                np.multiply(W, scale, out=W, where=over)
    for m, w, b_k in zip(models, W, b[:, 0]):
        m.coef_, m.intercept_ = w, float(b_k)


def _largest_square_within(radius: float) -> float:
    """The largest double r2 with ``sqrt(r2) <= radius`` (inf for an
    infinite radius). ``sqrt`` is correctly rounded, hence monotone, so
    ``sqrt(q) > radius`` exactly when ``q > r2``, with no root taken."""
    r2 = radius * radius
    while np.sqrt(r2) > radius:
        r2 = np.nextafter(r2, -np.inf)
    while r2 < np.inf and np.sqrt(np.nextafter(r2, np.inf)) <= radius:
        r2 = np.nextafter(r2, np.inf)
    return r2


#: Rows per blocked SGD update in :meth:`OneClassSVM.fit`.
_OCSVM_BLOCK = 64
#: Random Fourier features and SGD epochs of :class:`OneClassSVM`.
_OCSVM_COMPONENTS = 100
_OCSVM_EPOCHS = 30


def _ocsvm_blocked_sgd(phi: np.ndarray, nu: float, max_iter: int, rng, block: int):
    """SGD on the linear one-class objective, ``block`` rows at a time;
    returns ``(w, rho)``.

    The per-sample schedule is applied in closed form: the decays
    ``(1 - η_s) = (s-1)/s`` across a block covering steps ``t₀+1 .. t₁``
    collapse to ``t₀/t₁``, and every margin violator lands with coefficient
    ``1/(ν t₁)``. Margins (and ρ) are frozen at block start; ρ accumulates
    ``η_s`` over the block's non-violators, as the per-sample loop nets
    out. One permutation is drawn per epoch, as the per-sample loop does,
    so ``block=1`` replays that loop's schedule (to rounding).
    """
    n = phi.shape[0]
    w = phi.mean(axis=0)
    rho = 0.0
    step = 0
    B = min(block, n)
    for _ in range(max_iter):
        perm = rng.permutation(n)
        for start in range(0, n, B):
            blk = perm[start : start + B]
            m = blk.size
            phib = phi[blk]
            viol = phib @ w - rho < 0.0
            steps = step + 1 + np.arange(m)
            last = step + m
            w = w * (step / last) + (phib.T @ viol) / (nu * last)
            rho += float((~viol) @ (1.0 / steps))
            step = last
    return w, rho


class OneClassSVM(BaseEstimator):
    """One-class SVM with an RBF kernel approximated by random Fourier features.

    Solves Schölkopf's linear one-class objective in the randomized feature
    space: minimize ``||w||²/2 + (1/(ν n)) Σ max(0, ρ − w·φ(x)) − ρ``, by
    blocked SGD (:func:`_ocsvm_blocked_sgd`, ``_OCSVM_BLOCK`` rows a block,
    ``_OCSVM_EPOCHS`` epochs) over ``_OCSVM_COMPONENTS`` features. The RBF
    bandwidth is sklearn's ``gamma="scale"``, ``1 / (d · Var(X))``.
    ``decision_function`` is positive inside the learned support region;
    ``score_samples`` returns an outlier score (higher = more anomalous) for
    use by the detector wrapper.

    Parameters
    ----------
    nu : float
        Upper bound on the training outlier fraction, in (0, 1].
    """

    def __init__(self, nu: float = 0.5, random_state=None):
        self.nu = nu
        self.random_state = random_state

    @staticmethod
    def _gamma(X: np.ndarray) -> float:
        var = X.var()
        return 1.0 / (X.shape[1] * var) if var > 0 else 1.0

    def _features(self, X: np.ndarray) -> np.ndarray:
        proj = X @ self.omega_ + self.phase_
        return np.sqrt(2.0 / _OCSVM_COMPONENTS) * np.cos(proj)

    def fit(self, X, y=None) -> "OneClassSVM":
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("nu must be in (0, 1].")
        X = check_array(X)
        rng = check_random_state(self.random_state)
        gamma = self._gamma(X)
        d = X.shape[1]
        size = (d, _OCSVM_COMPONENTS)
        self.omega_ = rng.normal(0.0, np.sqrt(2.0 * gamma), size=size)
        self.phase_ = rng.uniform(0.0, 2.0 * np.pi, size=_OCSVM_COMPONENTS)
        phi = self._features(X)
        w, _ = _ocsvm_blocked_sgd(phi, self.nu, _OCSVM_EPOCHS, rng, _OCSVM_BLOCK)
        self.coef_ = w
        self.n_features_in_ = d
        # Calibrate rho to the nu-quantile of training scores, which is what
        # exact OCSVM solvers converge to and is far more stable than the
        # SGD iterate.
        self.rho_ = float(np.quantile(phi @ w, self.nu))
        return self

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
        return self._features(X) @ self.coef_ - self.rho_

    def score_samples(self, X) -> np.ndarray:
        """Outlier score: negative decision function (higher = more anomalous)."""
        return -self.decision_function(X)

    def predict(self, X) -> np.ndarray:
        """Return +1 for inliers, -1 for outliers (libsvm convention)."""
        return np.where(self.decision_function(X) >= 0, 1, -1)
