"""Transfer-learning extension (paper §8 future work).

``TransferNurd`` warm-starts a new job's latency model from a *source* job:
early in the target job, when few finished tasks exist, predictions blend a
regressor pre-trained on the source job with the freshly trained target
regressor. The blend weight shifts toward the target model as finished tasks
accumulate, so by late checkpoints it behaves exactly like plain NURD.

Latencies differ in scale across jobs, so the source model is trained on
*normalized* latency (y / source p50) and its predictions are rescaled by the
target job's running median of finished latencies.
"""

from __future__ import annotations

import numpy as np

from repro.core.nurd import NurdPredictor, _default_regressor
from repro.utils.validation import check_array, check_is_fitted, check_X_y


class TransferNurd(NurdPredictor):
    """NURD with a source-job prior on the latency model.

    The target side is a stock :class:`NurdPredictor` (``alpha = 0.5``,
    ``eps = 0.05``, the default latency and propensity models).

    Parameters
    ----------
    prior_strength : float
        Pseudo-count controlling how fast the target model takes over; the
        source model's blend weight is ``prior / (prior + n_finished)``.
    random_state : int or Generator or None
        As :class:`NurdPredictor`.
    """

    def __init__(self, prior_strength: float = 50.0, random_state=None):
        super().__init__(random_state=random_state)
        self.prior_strength = prior_strength

    def fit_source(self, X_source, y_source) -> "TransferNurd":
        """Train the transferable prior on a finished source job."""
        if self.prior_strength < 0:
            raise ValueError("prior_strength must be non-negative.")
        X_source, y_source = check_X_y(X_source, y_source)
        self._source_scale_ = float(np.median(y_source))
        if self._source_scale_ <= 0:
            raise ValueError("source latencies must be positive.")
        self.source_model_ = _default_regressor()
        self.source_model_.fit(X_source, y_source / self._source_scale_)
        return self

    def update(self, X_fin, y_fin, X_run, elapsed_run=None) -> None:
        super().update(X_fin, y_fin, X_run, elapsed_run)
        y_fin = np.asarray(y_fin, dtype=float)
        self._n_finished_ = y_fin.shape[0]
        self._target_scale_ = float(np.median(y_fin))

    def predict_latency(self, X_run) -> np.ndarray:
        y_target = super().predict_latency(X_run)
        if not hasattr(self, "source_model_"):
            return y_target
        check_is_fitted(self, ["_n_finished_"])
        X_run = check_array(X_run)
        w_source = self.prior_strength / (self.prior_strength + self._n_finished_)
        y_source = self.source_model_.predict(X_run) * self._target_scale_
        # The source prediction is rescaled but NOT reweighted: the propensity
        # model belongs to the target job. Blending after adjustment keeps the
        # straggler dilation from the target side.
        return (1.0 - w_source) * y_target + w_source * y_source

    @property
    def name(self) -> str:
        return "TransferNURD"
