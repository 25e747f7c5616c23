"""The fourteen outlier-detection baselines of the paper's Table 3.

Each detector follows the PyOD convention the paper's evaluation used:
``fit(X)`` learns on (unlabeled) data, ``decision_function(X)`` returns an
outlier score where **higher means more anomalous**, and ``predict(X)``
thresholds the scores at the ``contamination`` quantile of the training
scores (1 = outlier).

All detectors are reimplemented from their original papers on top of
:mod:`repro.learn` (PyOD is not available offline).
"""

from repro.outliers.base import BaseDetector
from repro.outliers.abod import ABOD
from repro.outliers.cblof import CBLOF
from repro.outliers.hbos import HBOS
from repro.outliers.iforest import IForest
from repro.outliers.knn import KNNDetector
from repro.outliers.lof import LOF
from repro.outliers.mcd import MCD
from repro.outliers.ocsvm import OCSVMDetector
from repro.outliers.pca import PCADetector
from repro.outliers.sos import SOS
from repro.outliers.lscp import LSCP
from repro.outliers.cof import COF
from repro.outliers.sod import SOD
from repro.outliers.xgbod import XGBOD

ALL_DETECTORS = {
    "ABOD": ABOD,
    "CBLOF": CBLOF,
    "HBOS": HBOS,
    "IFOREST": IForest,
    "KNN": KNNDetector,
    "LOF": LOF,
    "MCD": MCD,
    "OCSVM": OCSVMDetector,
    "PCA": PCADetector,
    "SOS": SOS,
    "LSCP": LSCP,
    "COF": COF,
    "SOD": SOD,
    "XGBOD": XGBOD,
}

__all__ = [
    "BaseDetector",
    "ALL_DETECTORS",
    *(cls.__name__ for cls in ALL_DETECTORS.values()),
]
