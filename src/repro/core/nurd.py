"""NURD: Algorithm 1 of the paper, plus the NURD-NC ablation.

At every checkpoint NURD

1. fits a latency regressor ``h_t`` (gradient boosting trees) on the
   finished tasks,
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
from repro.core.calibration import check_eps, clip_weight, compute_delta, compute_rho
from repro.core.propensity import PropensityScorer
from repro.learn.base import BaseEstimator
from repro.learn.gbm import GradientBoostingRegressor
from repro.utils.validation import check_array, check_bool, check_is_fitted, check_X_y

#: The latency model's size: a small, shallow ensemble. NURD retrains every
#: checkpoint on a few hundred samples, so capacity beyond this only costs time.
_N_ESTIMATORS = 60
_MAX_DEPTH = 3
#: Trees a warm-started checkpoint refit adds to the ensemble.
_WARM_INCREMENT = 25
#: Growth of the finished set since the last full fit that forces a full refit.
_WARM_REFRESH = 1.45


class NurdPredictor(OnlineStragglerPredictor):
    """Negative-unlabeled straggler predictor with reweighting + calibration.

    The latency model ``h_t`` is gradient boosting trees (the paper's
    choice), ``_N_ESTIMATORS`` trees of depth ``_MAX_DEPTH``.

    Parameters
    ----------
    alpha : float
        Calibration range parameter in (0, 1) (see
        :func:`repro.core.calibration.compute_delta`); the paper tunes
        ``alpha = 0.5``.
    eps : float
        Minimum weight, in (0, 1]; the paper uses ``eps = 0.05``.
    propensity_model : classifier or None
        Model for ``g_t``; defaults to logistic regression per the paper.
    rho_max : float
        Cap on ρ before Eq. 3 (see
        :func:`repro.core.calibration.compute_delta`); ``np.inf`` recovers
        the paper's exact formula.
    warm_start : bool
        When True (default), each checkpoint's :meth:`update` extends the
        previous checkpoint's ensemble by ``_WARM_INCREMENT`` trees
        (re-boosting on the enlarged finished set) instead of refitting all
        ``_N_ESTIMATORS`` trees from scratch — the old trees stay valid
        because they predict on raw features, and the new stages correct
        their residuals on the newest data. To avoid anchoring the ensemble
        on trees fitted to tiny early samples, a full refit is forced
        whenever the finished set has grown by ``_WARM_REFRESH`` since the
        last full fit (geometric refresh: total refit cost is amortized to
        ~2 end-of-job fits while the model tracks the data).
    random_state : int or Generator or None
        Kept so every method is built alike (``build_predictor`` passes
        one to each); NURD's models draw no random numbers.
    """

    #: False in :class:`NurdNcPredictor`: ``w = z``, no calibration.
    calibrate = True

    def __init__(
        self,
        alpha: float = 0.5,
        eps: float = 0.05,
        propensity_model: Optional[BaseEstimator] = None,
        rho_max: float = 1.2,
        warm_start: bool = True,
        random_state=None,
    ):
        self.alpha = alpha
        self.eps = eps
        self.propensity_model = propensity_model
        self.rho_max = rho_max
        self.warm_start = warm_start
        self.random_state = random_state

    # ------------------------------------------------------------------
    def begin_job(self, X_fin, y_fin, X_run, tau_stra: float) -> None:
        """Compute the per-job calibration term from warmup centroids.

        Raises ``ValueError`` unless ``alpha`` lies in (0, 1) (checked by
        :func:`repro.core.calibration.compute_delta`) and ``eps`` in (0, 1]
        (:func:`repro.core.calibration.check_eps`), NURD-NC included, and
        unless ``warm_start`` is a bool.
        """
        super().begin_job(X_fin, y_fin, X_run, tau_stra)
        check_eps(self.eps)
        check_bool(self.warm_start, "warm_start")
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
        ``_WARM_INCREMENT`` extra trees on the enlarged finished set.
        """
        check_is_fitted(self, ["tau_stra_"])
        X_fin, y_fin = check_X_y(X_fin, y_fin)
        X_run = check_array(X_run, allow_empty=True)
        warm_ok = (
            self.warm_start
            and getattr(self, "_fitted_models", False)
            and X_fin.shape[1] == self.h_.n_features_in_
            # Geometric refresh: once the finished set outgrows the last
            # full fit by _WARM_REFRESH, old trees (fitted on a much smaller
            # sample) would dominate — refit from scratch instead.
            and X_fin.shape[0] < _WARM_REFRESH * self._n_full_fit
            # Bound ensemble growth on long checkpoint streams: never let
            # warm extensions exceed 4x the base capacity.
            and len(self.h_.estimators_) + _WARM_INCREMENT <= 4 * _N_ESTIMATORS
        )
        if warm_ok:
            n_trees = len(self.h_.estimators_) + _WARM_INCREMENT
            self.h_.set_params(n_estimators=n_trees)
        else:
            self.h_ = GradientBoostingRegressor(
                n_estimators=_N_ESTIMATORS,
                max_depth=_MAX_DEPTH,
                warm_start=self.warm_start,
            )
            self._n_full_fit = X_fin.shape[0]
        self.h_.fit(X_fin, y_fin)
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

    calibrate = False
