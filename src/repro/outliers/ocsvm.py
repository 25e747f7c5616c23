"""One-class SVM detector (Schölkopf et al., 2001) — wraps
:class:`repro.learn.svm.OneClassSVM` into the detector contract."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learn.svm import OneClassSVM
from repro.outliers.base import BaseDetector
from repro.utils.validation import check_positive_int


class OCSVMDetector(BaseDetector):
    """One-class SVM with RBF random-Fourier-feature approximation.

    Parameters
    ----------
    nu : float, optional
        Upper bound on the training outlier fraction, in (0, 1]; defaults
        to the contamination value for consistency with the straggler rate.
    gamma : 'scale', 'auto' or float
        RBF bandwidth.
    n_components : int
        Random Fourier features.
    """

    def __init__(
        self,
        nu: Optional[float] = None,
        gamma="scale",
        n_components: int = 100,
        contamination: float = 0.1,
        random_state=None,
    ):
        super().__init__(contamination=contamination)
        if nu is not None and not 0.0 < nu <= 1.0:
            raise ValueError(f"nu must be in (0, 1], got {nu}.")
        check_positive_int(n_components, "n_components")
        self.nu = nu
        self.gamma = gamma
        self.n_components = n_components
        self.random_state = random_state

    def _fit(self, X: np.ndarray) -> None:
        nu = self.contamination if self.nu is None else self.nu
        self.model_ = OneClassSVM(
            nu=nu,
            gamma=self.gamma,
            n_components=self.n_components,
            random_state=self.random_state,
        ).fit(X)

    def _score(self, X: np.ndarray) -> np.ndarray:
        return self.model_.score_samples(X)
