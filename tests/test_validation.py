"""Unit tests for repro.utils.validation and for estimators' parameter checks."""

import inspect

import numpy as np
import pytest

from repro.censored import CoxPHFitter, GrabitRegressor, TobitRegressor
from repro.core.nurd import NurdNcPredictor, NurdPredictor
from repro.core.propensity import PropensityScorer
from repro.eval.baselines import (
    CensoredRegressionPredictor,
    GbtrPredictor,
    OutlierDetectorPredictor,
    PuPredictor,
    WranglerPredictor,
)
from repro.eval.harness import EvaluationConfig
from repro.learn import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LinearSVC,
    LogisticRegression,
    OneClassSVM,
    StandardScaler,
    clone,
)
from repro.learn.cluster import KMeans
from repro.learn.neighbors import NearestNeighbors
from repro.outliers import (
    ABOD,
    ALL_DETECTORS,
    CBLOF,
    COF,
    HBOS,
    LOF,
    LSCP,
    MCD,
    SOD,
    SOS,
    XGBOD,
    IForest,
    KNNDetector,
    OCSVMDetector,
    PCADetector,
)
from repro.outliers.base import BaseDetector
from repro.pu import BaggingPuClassifier, ElkanNotoClassifier
from repro.serving.service import ServiceConfig
from repro.sim.mitigation import MitigationConfig
from repro.sim.replay import ReplaySimulator
from repro.utils.validation import (
    NotFittedError,
    check_array,
    check_is_fitted,
    check_n_features,
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


class TestCheckNFeatures:
    def test_matching_width_passes(self):
        check_n_features(np.zeros((2, 3)), 3)

    def test_mismatch_names_both_widths(self):
        with pytest.raises(ValueError, match="X has 2 features; .* fitted with 3"):
            check_n_features(np.zeros((4, 2)), 3)


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
        (KMeans, "n_clusters", np.nan),
        (LOF, "n_neighbors", 0),
        (LOF, "n_neighbors", -1),
        (LOF, "n_neighbors", np.nan),
        (IForest, "n_estimators", np.nan),
        (IForest, "n_estimators", 2.5),
        (GrabitRegressor, "sigma", np.nan),
        (GrabitRegressor, "sigma", np.inf),
        (GrabitRegressor, "sigma", 0.0),
        (GrabitRegressor, "sigma", -1.0),
        *[
            (estimator, "random_state", seed)
            for estimator in (IForest, KMeans, MCD)
            for seed in (np.nan, 2.5, -1)
        ],
        (NearestNeighbors, "n_neighbors", np.nan),
        (NearestNeighbors, "n_neighbors", 2.5),
        (PropensityScorer, "model", 0),
        *[
            (estimator, "warm_start", value)
            for estimator in (GradientBoostingRegressor, GradientBoostingClassifier)
            for value in (np.nan, -1, 2.5, "yes")
        ],
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


@pytest.mark.parametrize("value", [np.nan, -1, 2.5, "yes"])
@pytest.mark.parametrize("predictor", [NurdPredictor, NurdNcPredictor])
def test_nurd_warm_start_must_be_a_bool(predictor, value):
    """Any truthy ``warm_start`` used to warm-extend NURD's latency model."""
    X, _ = _xy()
    with pytest.raises(ValueError, match="^warm_start must"):
        predictor(warm_start=value).begin_job(X[:20], X[:20, 0] + 3.0, X[20:], 3.0)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_warm_start_takes_numpy_bools(value):
    X, y = _xy()
    GradientBoostingRegressor(n_estimators=2, warm_start=value).fit(X, y)


# The census of EXPERIMENTS.md "Settable values": each class under NURD and
# the Table-3 baselines and the constructor parameters it keeps. A parameter no
# caller outside tests/ sets is a constant, so adding one back fails here.
SETTABLE_VALUES = [
    (StandardScaler, []),
    (LogisticRegression, []),
    (LinearSVC, ["random_state"]),
    (OneClassSVM, ["nu", "random_state"]),
    (KMeans, ["n_clusters", "random_state"]),
    (NearestNeighbors, ["n_neighbors"]),
    (CoxPHFitter, []),
    (TobitRegressor, []),
    (GrabitRegressor, ["sigma"]),
    (
        GradientBoostingRegressor,
        ["n_estimators", "max_depth", "max_bins", "warm_start"],
    ),
    (
        GradientBoostingClassifier,
        ["n_estimators", "max_depth", "max_bins", "warm_start"],
    ),
    (BaggingPuClassifier, ["random_state"]),
    (ElkanNotoClassifier, ["random_state"]),
    (ABOD, ["contamination"]),
    (CBLOF, ["contamination", "random_state"]),
    (COF, ["contamination"]),
    (HBOS, ["contamination"]),
    (IForest, ["n_estimators", "contamination", "random_state"]),
    (KNNDetector, ["contamination"]),
    (LOF, ["n_neighbors", "contamination"]),
    (LSCP, ["contamination"]),
    (MCD, ["contamination", "random_state"]),
    (OCSVMDetector, ["contamination", "random_state"]),
    (PCADetector, ["contamination"]),
    (SOD, ["contamination"]),
    (SOS, ["contamination"]),
    (XGBOD, ["contamination", "random_state"]),
    (PropensityScorer, ["model"]),
    (
        NurdPredictor,
        ["alpha", "eps", "propensity_model", "rho_max", "warm_start", "random_state"],
    ),
    (
        NurdNcPredictor,
        ["alpha", "eps", "propensity_model", "rho_max", "warm_start", "random_state"],
    ),
    (GbtrPredictor, ["random_state"]),
    (OutlierDetectorPredictor, ["detector_name", "contamination", "random_state"]),
    (PuPredictor, ["variant", "random_state"]),
    (CensoredRegressionPredictor, ["variant", "sigma", "random_state"]),
    (WranglerPredictor, ["random_state"]),
]

REQUIRED_ARGUMENTS = {OutlierDetectorPredictor: {"detector_name": "KNN"}}


@pytest.mark.parametrize(
    "cls, names", SETTABLE_VALUES, ids=[c.__name__ for c, _ in SETTABLE_VALUES]
)
def test_settable_values(cls, names):
    """The constructor takes exactly the census's parameters, and the
    parameter protocol (``get_params``, ``clone``, ``repr``) sees the same
    names, including for a class with no ``__init__`` of its own."""
    sig = inspect.signature(cls.__init__)
    assert [p for p in sig.parameters if p not in ("self", "args", "kwargs")] == names
    model = cls(**REQUIRED_ARGUMENTS.get(cls, {}))
    assert list(model.get_params()) == names
    copy = clone(model)
    assert type(copy) is cls and copy.get_params() == model.get_params()
    assert repr(model).startswith(f"{cls.__name__}(")


# The run-level half of the census: the configs a replay, a closed loop or a
# service run is built from, and who sets what each keeps (EXPERIMENTS.md,
# "Settable values").
RUN_LEVEL_VALUES = [
    (MitigationConfig, ["policy", "random_state"]),
    (
        EvaluationConfig,
        [
            "n_checkpoints",
            "warmup_fraction",
            "straggler_percentile",
            "feature_noise",
            "alpha",
            "eps",
            "method_params",
            "random_state",
        ],
    ),
    (
        ServiceConfig,
        ["n_workers", "queue_depth", "budget", "restart_policy", "emit_policy"],
    ),
    (
        ReplaySimulator,
        [
            "n_checkpoints",
            "warmup_fraction",
            "straggler_percentile",
            "feature_noise",
            "random_state",
        ],
    ),
]


@pytest.mark.parametrize(
    "cls, names", RUN_LEVEL_VALUES, ids=[c.__name__ for c, _ in RUN_LEVEL_VALUES]
)
def test_run_level_values(cls, names):
    """A run-level config takes exactly the census's parameters."""
    sig = inspect.signature(cls.__init__)
    assert [p for p in sig.parameters if p != "self"] == names


def _fit_X(model, X, y):
    return model.fit(X)


def _fit_Xy(model, X, y):
    return model.fit(X, y)


def _fit_survival(model, X, y):
    return model.fit(X, np.exp(X[:, 0]) + 1.0, y.astype(bool))


def _fit_finished_running(model, X, y):
    return model.fit(X[y == 1], X[y == 0])


WIDTH_CASES = [
    # XGBOD needs the labels; the unsupervised detectors ignore them.
    *[(name, cls, _fit_Xy, "decision_function") for name, cls in ALL_DETECTORS.items()],
    ("StandardScaler", StandardScaler, _fit_X, "transform"),
    ("LogisticRegression", LogisticRegression, _fit_Xy, "decision_function"),
    ("LinearSVC", LinearSVC, _fit_Xy, "decision_function"),
    ("OneClassSVM", OneClassSVM, _fit_X, "decision_function"),
    ("NearestNeighbors", NearestNeighbors, _fit_X, "kneighbors"),
    ("GradientBoostingRegressor", GradientBoostingRegressor, _fit_Xy, "predict"),
    (
        "GradientBoostingClassifier",
        GradientBoostingClassifier,
        _fit_Xy,
        "decision_function",
    ),
    ("GrabitRegressor", GrabitRegressor, _fit_Xy, "predict"),
    ("TobitRegressor", TobitRegressor, _fit_Xy, "predict"),
    ("CoxPHFitter", CoxPHFitter, _fit_survival, "predict_partial_hazard"),
    ("BaggingPuClassifier", BaggingPuClassifier, _fit_Xy, "decision_function"),
    ("ElkanNotoClassifier", ElkanNotoClassifier, _fit_Xy, "predict_proba"),
    ("PropensityScorer", PropensityScorer, _fit_finished_running, "score"),
]


@pytest.mark.parametrize(
    "cls, fit, method", [c[1:] for c in WIDTH_CASES], ids=[c[0] for c in WIDTH_CASES]
)
def test_wrong_width_raises_naming_both_widths(cls, fit, method):
    """Every estimator that checks its input width at predict time goes
    through ``check_n_features``: one message, naming both widths."""
    gen = np.random.default_rng(0)
    X = gen.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(int)
    seeded = "random_state" in cls._param_names()
    model = fit(cls(random_state=0) if seeded else cls(), X, y)
    with pytest.raises(ValueError, match="^X has 2 features; .* fitted with 3"):
        getattr(model, method)(X[:, :2])
