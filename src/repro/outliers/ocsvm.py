"""One-class SVM detector (Schölkopf et al., 2001) — wraps
:class:`repro.learn.svm.OneClassSVM` into the detector contract."""

from __future__ import annotations

import numpy as np

from repro.learn.svm import OneClassSVM
from repro.outliers.base import BaseDetector


class OCSVMDetector(BaseDetector):
    """One-class SVM with RBF random-Fourier-feature approximation.

    Its ν is the contamination, for consistency with the straggler rate.
    """

    def __init__(self, contamination: float = 0.1, random_state=None):
        super().__init__(contamination=contamination)
        self.random_state = random_state

    def _fit(self, X: np.ndarray) -> None:
        self.model_ = OneClassSVM(
            nu=self.contamination, random_state=self.random_state
        ).fit(X)

    def _score(self, X: np.ndarray) -> np.ndarray:
        return self.model_.score_samples(X)
