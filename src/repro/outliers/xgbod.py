"""XGBOD (Zhao & Hryniewicki, IJCNN 2018): semi-supervised outlier detection.

Unsupervised detector scores are appended to the raw features as
*transformed outlier representations*, then a gradient-boosted classifier is
trained on the augmented matrix with whatever labels are available. In the
paper's online straggler setting the only labels observable mid-job are
finished (0) vs. still-running (1), which is what the evaluation harness
feeds it.
"""

from __future__ import annotations

import numpy as np

from repro.learn.gbm import GradientBoostingClassifier
from repro.outliers.base import BaseDetector
from repro.outliers.hbos import HBOS
from repro.outliers.iforest import IForest
from repro.outliers.knn import KNNDetector
from repro.outliers.lof import LOF
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_n_features,
    check_X_y,
)

#: Boosting rounds of the supervised stage.
_N_ESTIMATORS = 50


class XGBOD(BaseDetector):
    """Boosted classifier over unsupervised-score-augmented features.

    Unlike the unsupervised detectors, ``fit`` requires labels; the
    ``contamination`` threshold logic of the base class is unused: the
    threshold is 0 on the centered log-odds, so the base class's
    ``predict`` is the classifier's 0.5 probability cut. The scores of a
    KNN, LOF, HBOS and 30-tree IFOREST pool augment the features.
    """

    def __init__(self, contamination: float = 0.1, random_state=None):
        super().__init__(contamination=contamination)
        self.random_state = random_state

    def _pool(self) -> list:
        return [
            KNNDetector(contamination=self.contamination),
            LOF(n_neighbors=20, contamination=self.contamination),
            HBOS(contamination=self.contamination),
            IForest(
                n_estimators=30,
                contamination=self.contamination,
                random_state=self.random_state,
            ),
        ]

    def _augment(self, X: np.ndarray) -> np.ndarray:
        scores = np.column_stack([d.decision_function(X) for d in self.detectors_])
        return np.hstack([X, scores])

    def fit(self, X, y=None) -> "XGBOD":
        if y is None:
            raise ValueError(
                "XGBOD is semi-supervised and requires labels "
                "(0 = normal, 1 = outlier candidate)."
            )
        X, y = check_X_y(X, y, y_numeric=False)
        self.detectors_ = self._pool()
        for d in self.detectors_:
            d.fit(X)
        # Each fit already scored X; for an inductive detector
        # ``decision_scores_`` equals ``decision_function(X)``, so Xa is
        # ``_augment(X)`` without scoring X again.
        Xa = np.hstack(
            [X, np.column_stack([d.decision_scores_ for d in self.detectors_])]
        )
        self.clf_ = GradientBoostingClassifier(
            n_estimators=_N_ESTIMATORS, max_depth=3
        ).fit(Xa, y.astype(np.int64))
        self.n_features_in_ = X.shape[1]
        self.decision_scores_ = self.clf_.decision_function(Xa)
        self.threshold_ = 0.0  # decision_function is centered log-odds
        return self

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, ["clf_"])
        X = check_array(X)
        check_n_features(X, self.n_features_in_)
        return self.clf_.decision_function(self._augment(X))
