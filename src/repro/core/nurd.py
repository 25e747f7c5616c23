"""NURD: Algorithm 1 of the paper, plus the NURD-NC ablation.

At every checkpoint NURD

1. fits a latency regressor ``h_t`` (gradient boosting trees by default) on
   the finished tasks,
2. fits a propensity model ``g_t`` discriminating finished vs. running tasks,
3. adjusts each running task's latency prediction by the calibrated weight
   ``w = max(eps, min(z + delta, 1))`` and flags it as a straggler when
   ``y_hat / w >= tau_stra``.

The calibration term ``delta`` is computed **once per job**, from the warmup
checkpoint's feature centroids (Algorithm 1 lines 4–6), because it encodes a
static property of the job — whether its straggler threshold sits below or
above half the maximum latency.

NURD-NC drops the calibration entirely (``w = z``), reproducing the paper's
own ablation showing calibration is what keeps the false-positive rate low.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import OnlineStragglerPredictor
from repro.core.calibration import clip_weight, compute_delta, compute_rho
from repro.core.propensity import PropensityScorer
from repro.learn.base import BaseEstimator, clone
from repro.learn.gbm import GradientBoostingRegressor
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_positive_int,
    check_X_y,
)


def _default_regressor() -> GradientBoostingRegressor:
    # Small, shallow ensemble: NURD retrains every checkpoint on a few
    # hundred samples, so capacity beyond this only costs time.
    return GradientBoostingRegressor(n_estimators=60, max_depth=3)


class NurdPredictor(OnlineStragglerPredictor):
    """Negative-unlabeled straggler predictor with reweighting + calibration.

    Parameters
    ----------
    alpha : float
        Calibration range parameter in (0, 1) (see
        :func:`repro.core.calibration.compute_delta`); the paper tunes
        ``alpha = 0.5``.
    eps : float
        Minimum positive weight; the paper uses ``eps = 0.05``.
    regressor : estimator or None
        Latency model ``h_t``; any regressor with fit/predict. Defaults to
        gradient boosting trees (the paper's choice).
    propensity_model : classifier or None
        Model for ``g_t``; defaults to logistic regression per the paper.
    calibrate : bool
        When False, behaves as NURD-NC (``w = z``); prefer the
        :class:`NurdNcPredictor` alias for readability.
    rho_max : float
        Cap on ρ before Eq. 3 (see
        :func:`repro.core.calibration.compute_delta`); ``np.inf`` recovers
        the paper's exact formula.
    warm_start : bool
        When True (default) and the latency model supports it, each
        checkpoint's :meth:`update` extends the previous checkpoint's
        ensemble by ``warm_increment`` trees (re-boosting on the enlarged
        finished set) instead of refitting all 60 trees from scratch — the
        old trees stay valid because they predict on raw features, and the
        new stages correct their residuals on the newest data. To avoid
        anchoring the ensemble on trees fitted to tiny early samples, a
        full refit is forced whenever the finished set has grown by
        ``warm_refresh`` since the last full fit (geometric refresh: total
        refit cost is amortized to ~2 end-of-job fits while the model
        tracks the data).
    warm_increment : int
        Trees added per warm-started checkpoint refit (an integer >= 1).
    warm_refresh : float
        Growth factor of the finished set that triggers a full refit
        (> 1; ``np.inf`` never refreshes).
    random_state : int or Generator or None
        Kept so every method is built alike (``build_predictor`` passes
        one to each); the default models draw no random numbers.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        eps: float = 0.05,
        regressor: Optional[BaseEstimator] = None,
        propensity_model: Optional[BaseEstimator] = None,
        calibrate: bool = True,
        rho_max: float = 1.2,
        warm_start: bool = True,
        warm_increment: int = 25,
        warm_refresh: float = 1.45,
        random_state=None,
    ):
        self.alpha = alpha
        self.eps = eps
        self.regressor = regressor
        self.propensity_model = propensity_model
        self.calibrate = calibrate
        self.rho_max = rho_max
        self.warm_start = warm_start
        self.warm_increment = warm_increment
        self.warm_refresh = warm_refresh
        self.random_state = random_state

    # ------------------------------------------------------------------
    def begin_job(self, X_fin, y_fin, X_run, tau_stra: float) -> None:
        """Compute the per-job calibration term from warmup centroids.

        Raises ``ValueError`` unless ``alpha`` lies in (0, 1) (checked by
        :func:`repro.core.calibration.compute_delta`, NURD-NC included) and
        ``eps`` is positive.
        """
        super().begin_job(X_fin, y_fin, X_run, tau_stra)
        if self.eps <= 0:
            raise ValueError("eps must be positive.")
        X_fin = check_array(X_fin)
        X_run = check_array(X_run)
        self.rho_ = compute_rho(X_fin, X_run)
        delta = compute_delta(self.rho_, self.alpha, rho_max=self.rho_max)
        self.delta_ = delta if self.calibrate else 0.0
        self._fitted_models = False

    def update(self, X_fin, y_fin, X_run) -> None:
        """Refit ``h_t`` on finished tasks and ``g_t`` on finished vs running.

        With ``warm_start`` the first checkpoint trains the full ensemble;
        every later checkpoint re-boosts the existing ensemble with
        ``warm_increment`` extra trees on the enlarged finished set.
        """
        check_is_fitted(self, ["tau_stra_"])
        check_positive_int(self.warm_increment, "warm_increment")
        if self.warm_refresh <= 1.0:
            raise ValueError("warm_refresh must be > 1.")
        X_fin, y_fin = check_X_y(X_fin, y_fin)
        X_run = check_array(X_run, allow_empty=True)
        warm_ok = (
            self.warm_start
            and getattr(self, "_fitted_models", False)
            and isinstance(getattr(self, "h_", None), GradientBoostingRegressor)
            and self.h_.warm_start
            and X_fin.shape[1] == self.h_.n_features_in_
            # Geometric refresh: once the finished set outgrows the last
            # full fit by warm_refresh, old trees (fitted on a much smaller
            # sample) would dominate — refit from scratch instead.
            and X_fin.shape[0] < self.warm_refresh * self._n_full_fit
            # Bound ensemble growth on long checkpoint streams: never let
            # warm extensions exceed 4x the base capacity.
            and len(self.h_.estimators_) + self.warm_increment
            <= 4 * self._base_trees
        )
        if warm_ok:
            self.h_.set_params(
                n_estimators=len(self.h_.estimators_) + self.warm_increment
            )
            self.h_.fit(X_fin, y_fin)
        else:
            base = (
                self.regressor if self.regressor is not None else _default_regressor()
            )
            self.h_ = clone(base)
            if self.warm_start and isinstance(self.h_, GradientBoostingRegressor):
                self.h_.set_params(warm_start=True)
            self.h_.fit(X_fin, y_fin)
            self._n_full_fit = X_fin.shape[0]
            self._base_trees = max(len(getattr(self.h_, "estimators_", [])), 1)
        self._fit_propensity(X_fin, X_run)
        self._fitted_models = True

    def partial_update(self, X_fin, y_fin, X_run) -> None:
        """Budget-degraded update: refresh ``g_t`` only, keep the cached ``h_t``.

        The propensity model discriminates finished vs. running — a split
        that shifts at every checkpoint — while the latency regressor learns
        a slowly-drifting function of the features, so under a latency
        budget refreshing ``g_t`` (a few Newton steps) and reusing the
        cached ensemble retains most of the full update's accuracy at a
        fraction of its cost (see :meth:`ReplayStream.step`'s budget tiers).
        """
        check_is_fitted(self, ["h_"])
        X_fin, y_fin = check_X_y(X_fin, y_fin)
        X_run = check_array(X_run, allow_empty=True)
        self._fit_propensity(X_fin, X_run)

    def _fit_propensity(self, X_fin, X_run) -> None:
        if X_run.shape[0] > 0:
            self.g_ = PropensityScorer(model=self.propensity_model)
            self.g_.fit(X_fin, X_run)
        else:
            self.g_ = None

    # ------------------------------------------------------------------
    def predict_weights(self, X_run) -> np.ndarray:
        """The weighting function w_ti for each running task."""
        check_is_fitted(self, ["h_"])
        X_run = check_array(X_run)
        if self.g_ is None:
            return np.ones(X_run.shape[0])
        z = self.g_.score(X_run)
        if self.calibrate:
            return clip_weight(z, self.delta_, self.eps)
        # NURD-NC: w = z, floored so the division stays finite.
        return np.maximum(z, 1e-6)

    def predict_latency(self, X_run) -> np.ndarray:
        """Adjusted latency predictions ŷ_adj = ŷ / w (Eq. 4)."""
        check_is_fitted(self, ["h_"])
        X_run = check_array(X_run)
        y_hat = self.h_.predict(X_run)
        w = self.predict_weights(X_run)
        return y_hat / w

    def predict_stragglers(self, X_run) -> np.ndarray:
        """Flag tasks whose adjusted prediction crosses the threshold."""
        X_run = check_array(X_run, allow_empty=True)
        if X_run.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        return self.predict_latency(X_run) >= self.tau_stra_

    @property
    def name(self) -> str:
        return "NURD" if self.calibrate else "NURD-NC"


class NurdNcPredictor(NurdPredictor):
    """NURD without calibration (w = z) — the paper's NURD-NC ablation."""

    def __init__(
        self,
        alpha: float = 0.5,
        eps: float = 0.05,
        regressor: Optional[BaseEstimator] = None,
        propensity_model: Optional[BaseEstimator] = None,
        rho_max: float = 1.2,
        warm_start: bool = True,
        warm_increment: int = 25,
        warm_refresh: float = 1.45,
        random_state=None,
    ):
        super().__init__(
            alpha=alpha,
            eps=eps,
            regressor=regressor,
            propensity_model=propensity_model,
            calibrate=False,
            rho_max=rho_max,
            warm_start=warm_start,
            warm_increment=warm_increment,
            warm_refresh=warm_refresh,
            random_state=random_state,
        )
