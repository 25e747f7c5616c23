"""Unit tests for repro.utils.validation and for estimators' parameter checks."""

import numpy as np
import pytest

from repro.learn.linear import LogisticRegression
from repro.learn.cluster import KMeans
from repro.learn.svm import LinearSVC, OneClassSVM
from repro.outliers import (
    ABOD,
    COF,
    LOF,
    LSCP,
    SOD,
    SOS,
    IForest,
    KNNDetector,
    OCSVMDetector,
)
from repro.outliers.base import BaseDetector
from repro.pu import BaggingPuClassifier
from repro.utils.validation import (
    NotFittedError,
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)


class TestCheckArray:
    def test_returns_float64(self):
        out = check_array([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_1d_by_default(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array([1.0, 2.0])

    def test_allows_1d_when_disabled(self):
        out = check_array([1.0, 2.0], ensure_2d=False)
        assert out.shape == (2,)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="0 samples"):
            check_array(np.zeros((0, 3)))

    def test_allows_empty_when_enabled(self):
        out = check_array(np.zeros((0, 3)), allow_empty=True)
        assert out.shape == (0, 3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_array([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_array([[np.inf, 1.0]])

    def test_contiguous(self):
        X = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        out = check_array(X)
        assert out.flags["C_CONTIGUOUS"]

    def test_custom_name_in_error(self):
        with pytest.raises(ValueError, match="myarr"):
            check_array([1.0], name="myarr")


class TestCheckXy:
    def test_matching(self):
        X, y = check_X_y([[1.0], [2.0]], [1.0, 2.0])
        assert X.shape == (2, 1) and y.shape == (2,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent lengths"):
            check_X_y([[1.0], [2.0]], [1.0])

    def test_y_flattened(self):
        _, y = check_X_y([[1.0], [2.0]], [[1.0], [2.0]])
        assert y.ndim == 1

    def test_y_nan_rejected(self):
        with pytest.raises(ValueError, match="y contains"):
            check_X_y([[1.0], [2.0]], [1.0, np.nan])


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_deterministic(self):
        a = check_random_state(5).random(3)
        b = check_random_state(5).random(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert check_random_state(g) is g

    def test_legacy_random_state(self):
        rs = np.random.RandomState(3)
        assert isinstance(check_random_state(rs), np.random.Generator)

    def test_invalid(self):
        with pytest.raises(ValueError):
            check_random_state("seed")


class TestCheckIsFitted:
    def test_unfitted_raises(self):
        class M:
            pass

        with pytest.raises(NotFittedError):
            check_is_fitted(M())

    def test_fitted_by_trailing_underscore(self):
        class M:
            pass

        m = M()
        m.coef_ = 1
        check_is_fitted(m)  # no raise

    def test_explicit_attributes(self):
        class M:
            pass

        m = M()
        m.a_ = 1
        with pytest.raises(NotFittedError, match="missing"):
            check_is_fitted(m, ["b_"])
        check_is_fitted(m, ["a_"])


def _xy():
    gen = np.random.default_rng(0)
    X = gen.normal(size=(30, 3))
    return X, (X[:, 0] > 0).astype(int)


@pytest.mark.parametrize(
    "estimator, param, value",
    [
        (LogisticRegression, "C", np.nan),
        (LogisticRegression, "C", np.inf),
        (LogisticRegression, "max_iter", 0),
        (LogisticRegression, "max_iter", 2.5),
        (LinearSVC, "C", np.nan),
        (LinearSVC, "C", np.inf),
        (OneClassSVM, "max_iter", 0),
        (OneClassSVM, "n_components", 0),
        (OneClassSVM, "n_components", 2.5),
        (OneClassSVM, "gamma", np.nan),
        (OCSVMDetector, "gamma", np.nan),
        (ABOD, "n_neighbors", np.nan),
        (SOD, "n_neighbors", np.nan),
        (LSCP, "local_region_size", 0),
        (KMeans, "n_init", 0),
        (KMeans, "max_iter", 0),
        (SOS, "perplexity", np.nan),
        (SOS, "perplexity", np.inf),
        (SOS, "n_neighbors", np.nan),
        (SOS, "n_neighbors", 2.5),
        (KNNDetector, "n_neighbors", 0),
        (KNNDetector, "n_neighbors", -1),
        (KNNDetector, "n_neighbors", np.nan),
        (LOF, "n_neighbors", 0),
        (LOF, "n_neighbors", -1),
        (LOF, "n_neighbors", np.nan),
        (COF, "n_neighbors", 0),
        (COF, "n_neighbors", -1),
        (COF, "n_neighbors", np.nan),
        (IForest, "n_estimators", np.nan),
        (IForest, "n_estimators", 2.5),
        (BaggingPuClassifier, "n_estimators", np.nan),
        (BaggingPuClassifier, "n_estimators", 2.5),
    ],
)
def test_bad_parameter_raises_naming_it(estimator, param, value):
    """A value that used to fit silently (or fail deep inside NumPy) raises a
    ValueError naming the parameter, at construction or at fit."""
    X, y = _xy()
    with pytest.raises(ValueError, match=f"^{param} must"):
        model = estimator(**{param: value})
        if isinstance(model, BaseDetector):
            model.fit(X)
        else:
            model.fit(X, y)
