"""Unit and property tests for repro.learn.metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.learn.metrics import (
    confusion_binary,
    f1_score,
    false_negative_rate,
    false_positive_rate,
    precision_score,
    recall_score,
    true_positive_rate,
)


class TestConfusion:
    def test_counts(self):
        y = [1, 1, 0, 0, 1]
        p = [1, 0, 0, 1, 1]
        tn, fp, fn, tp = confusion_binary(y, p)
        assert (tn, fp, fn, tp) == (1, 1, 1, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_binary([1, 0], [1])

    def test_bool_input(self):
        tn, fp, fn, tp = confusion_binary([True, False], [True, True])
        assert (tn, fp, fn, tp) == (0, 1, 0, 1)


class TestRates:
    def test_perfect(self):
        y = [1, 0, 1, 0]
        assert f1_score(y, y) == 1.0
        assert true_positive_rate(y, y) == 1.0
        assert false_positive_rate(y, y) == 0.0
        assert false_negative_rate(y, y) == 0.0

    def test_all_wrong(self):
        y = [1, 0]
        p = [0, 1]
        assert f1_score(y, p) == 0.0
        assert false_negative_rate(y, p) == 1.0
        assert false_positive_rate(y, p) == 1.0

    def test_no_positive_predictions(self):
        assert precision_score([1, 0], [0, 0]) == 0.0
        assert f1_score([1, 0], [0, 0]) == 0.0

    def test_no_true_positives_in_labels(self):
        assert recall_score([0, 0], [1, 0]) == 0.0
        assert false_negative_rate([0, 0], [0, 0]) == 0.0

    def test_tpr_is_recall(self):
        y = [1, 1, 0, 1]
        p = [1, 0, 0, 1]
        assert true_positive_rate(y, p) == recall_score(y, p)

    def test_fnr_complements_tpr(self):
        y = [1, 1, 0, 1, 0]
        p = [1, 0, 1, 1, 0]
        assert false_negative_rate(y, p) == pytest.approx(
            1.0 - true_positive_rate(y, p)
        )


@given(
    st.lists(st.booleans(), min_size=2, max_size=60),
    st.lists(st.booleans(), min_size=2, max_size=60),
)
def test_f1_bounded(y, p):
    n = min(len(y), len(p))
    val = f1_score(y[:n], p[:n])
    assert 0.0 <= val <= 1.0


@given(st.lists(st.booleans(), min_size=2, max_size=60))
def test_f1_self_is_one_or_zero(y):
    # F1 of y against itself is 1 when positives exist, else 0.
    val = f1_score(y, y)
    assert val == (1.0 if any(y) else 0.0)
