"""Model-quality yardsticks the tests hold estimators to.

The program reports only the paper's Table-3 metrics (TPR, FPR, FNR, F1);
these scores exist to check that a learner learns, so they live with the
tests.
"""

import numpy as np
from scipy.stats import rankdata


def r2(y_true, y_pred) -> float:
    """Coefficient of determination."""
    t = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    return 1.0 - np.sum((t - p) ** 2) / np.sum((t - t.mean()) ** 2)


def accuracy(y_true, y_pred) -> float:
    """Fraction of exactly matching labels."""
    return float(np.mean(np.asarray(y_true) == np.asarray(y_pred)))


def roc_auc(y_true, y_score) -> float:
    """Area under the ROC curve as the rank statistic (ties averaged)."""
    pos = np.asarray(y_true) > 0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = rankdata(y_score)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
