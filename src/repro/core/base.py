"""The online straggler-predictor interface every method implements.

The replay simulator (:mod:`repro.sim.replay`) drives predictors through this
protocol: at each checkpoint it calls :meth:`update` with everything observed
so far, then :meth:`predict_stragglers` on the still-running tasks. NURD, its
NC ablation, and all 21 baselines of Table 3 share this interface, so the
evaluation harness treats them uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator


class OnlineStragglerPredictor(BaseEstimator):
    """Abstract base for online straggler predictors.

    Lifecycle per job::

        pred.begin_job(X_fin0, y_fin0, X_run0, tau_stra)
        for each checkpoint t:
            pred.update(X_fin, y_fin, X_run)          # cumulative sets
            flags = pred.predict_stragglers(X_run)    # bool per running task

    ``X_fin``/``y_fin`` are the features and true latencies of every task
    finished so far; ``X_run`` the features of tasks still running (already
    excluding tasks flagged at earlier checkpoints — the paper evaluates each
    task at most once as a straggler).
    """

    def begin_job(self, X_fin, y_fin, X_run, tau_stra: float) -> None:
        """Initialize per-job state from the warmup data.

        Default implementation records the threshold; subclasses extend.
        """
        self.tau_stra_ = float(tau_stra)

    def update(self, X_fin, y_fin, X_run) -> None:
        """Refit internal models on the current finished/running split."""
        raise NotImplementedError

    def predict_stragglers(self, X_run) -> np.ndarray:
        """Boolean array: True where the running task is predicted to straggle."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Short display name used in tables/figures."""
        return type(self).__name__
