"""Binary classification metrics of the paper's Table 3.

The paper reports TPR, FPR, FNR and F1; precision and recall are F1's
parts.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _as_binary(y) -> np.ndarray:
    arr = np.asarray(y)
    out = (arr > 0).astype(np.int64) if arr.dtype != bool else arr.astype(np.int64)
    return out


def confusion_binary(y_true, y_pred) -> Tuple[int, int, int, int]:
    """Return (tn, fp, fn, tp) for binary labels (positive = truthy)."""
    t = _as_binary(y_true)
    p = _as_binary(y_pred)
    if t.shape != p.shape:
        raise ValueError(
            f"y_true and y_pred have different shapes: {t.shape} vs {p.shape}."
        )
    tp = int(np.sum((t == 1) & (p == 1)))
    tn = int(np.sum((t == 0) & (p == 0)))
    fp = int(np.sum((t == 0) & (p == 1)))
    fn = int(np.sum((t == 1) & (p == 0)))
    return tn, fp, fn, tp


def precision_score(y_true, y_pred) -> float:
    """TP / (TP + FP); 0.0 when nothing is predicted positive."""
    _, fp, _, tp = confusion_binary(y_true, y_pred)
    return tp / (tp + fp) if (tp + fp) > 0 else 0.0


def recall_score(y_true, y_pred) -> float:
    """TP / (TP + FN); 0.0 when there are no true positives."""
    _, _, fn, tp = confusion_binary(y_true, y_pred)
    return tp / (tp + fn) if (tp + fn) > 0 else 0.0


def true_positive_rate(y_true, y_pred) -> float:
    """Alias of recall (the paper's TPR column)."""
    return recall_score(y_true, y_pred)


def false_positive_rate(y_true, y_pred) -> float:
    """FP / (FP + TN); 0.0 when there are no true negatives."""
    tn, fp, _, _ = confusion_binary(y_true, y_pred)
    return fp / (fp + tn) if (fp + tn) > 0 else 0.0


def false_negative_rate(y_true, y_pred) -> float:
    """FN / (FN + TP) = 1 − TPR; 0.0 when there are no true positives."""
    _, _, fn, tp = confusion_binary(y_true, y_pred)
    return fn / (fn + tp) if (fn + tp) > 0 else 0.0


def f1_score(y_true, y_pred) -> float:
    """Harmonic mean of precision and recall; 0.0 when both are zero."""
    p = precision_score(y_true, y_pred)
    r = recall_score(y_true, y_pred)
    return 2 * p * r / (p + r) if (p + r) > 0 else 0.0
