"""Tests for the learn substrate: the tree builder, boosting, logistic
regression, SVMs, neighbors, clustering, the scaler, base-estimator
protocol."""

import numpy as np
import pytest

from repro.censored import GrabitRegressor
from repro.learn import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    KMeans,
    LinearSVC,
    LogisticRegression,
    OneClassSVM,
    StandardScaler,
    clone,
)
from repro.learn.neighbors import NearestNeighbors
from repro.learn.tree import _LEAF
from repro.utils.validation import NotFittedError
from test_gbm_parity import builder_tree, staged_raw_predict
from yardsticks import accuracy, r2


class TestBaseEstimatorProtocol:
    def test_get_params(self):
        m = GradientBoostingRegressor(max_depth=4, max_bins=32)
        params = m.get_params()
        assert params["max_depth"] == 4
        assert params["max_bins"] == 32

    def test_set_params(self):
        m = GradientBoostingRegressor().set_params(max_depth=7)
        assert m.max_depth == 7

    def test_set_invalid_param(self):
        with pytest.raises(ValueError, match="Invalid parameter"):
            GradientBoostingRegressor().set_params(bogus=1)

    def test_clone_unfitted_copy(self, regression_data):
        X, y = regression_data
        m = GradientBoostingRegressor(n_estimators=5, max_depth=3).fit(X, y)
        c = clone(m)
        assert c.max_depth == 3
        assert not hasattr(c, "estimators_")

    def test_repr_contains_params(self):
        assert "max_depth=5" in repr(GradientBoostingRegressor(max_depth=5))


def _n_leaves(tree):
    return int(np.sum(tree.feature == _LEAF))


class TestTreeBuilder:
    """One tree of the stage loop's builder, with mean leaves (the Newton
    step at unit hessian)."""

    def test_fits_noiseless_step(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        _, _, predict = builder_tree(X, y, max_depth=2)
        np.testing.assert_allclose(predict(X), y)

    def test_r2_reasonable(self, regression_data):
        X, y = regression_data
        _, _, predict = builder_tree(X, y, max_depth=6)
        assert r2(y, predict(X)) > 0.8

    def test_max_depth_limits_leaves(self, regression_data):
        X, y = regression_data
        shallow, _, _ = builder_tree(X, y, max_depth=2)
        deep, _, _ = builder_tree(X, y, max_depth=8)
        assert _n_leaves(shallow) <= 4 < _n_leaves(deep)

    def test_training_leaves_are_routed_leaves(self, regression_data):
        # The leaf the builder records for each training row is the leaf
        # the packed router sends that row to, so the Newton step and
        # prediction agree on every training row.
        X, y = regression_data
        tree, leaves, predict = builder_tree(X, y, max_depth=5)
        assert (tree.feature[leaves] == _LEAF).all()
        np.testing.assert_array_equal(tree.value[leaves], predict(X))

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        tree, _, predict = builder_tree(X, np.ones(50), max_depth=3)
        assert tree.node_count == 1
        np.testing.assert_allclose(predict(X), 1.0)


class TestGradientBoosting:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            GradientBoostingRegressor().predict([[1.0]])

    def test_regressor_beats_single_tree(self, regression_data):
        X, y = regression_data
        _, _, tree = builder_tree(X, y, max_depth=3)
        gbm = GradientBoostingRegressor(n_estimators=100, max_depth=3).fit(X, y)
        assert r2(y, gbm.predict(X)) > r2(y, tree(X))

    @pytest.mark.parametrize(
        "model",
        [GradientBoostingRegressor, GradientBoostingClassifier, GrabitRegressor],
    )
    def test_every_leaf_takes_the_newton_step(self, classification_data, model):
        # The builder leaves a leaf at max_depth NaN; the stage loop's
        # Newton step is what sets it, so no fitted leaf may stay NaN.
        X, y = classification_data
        m = model().fit(X, y)
        leaf_values = [t.value[t.feature == _LEAF] for t in m.estimators_]
        assert any(v.shape[0] == 2**m.max_depth for v in leaf_values)
        assert all(np.isfinite(v).all() for v in leaf_values)
        assert np.isfinite(m.predict(X)).all()

    def test_train_loss_decreases(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=50).fit(X, y)
        losses = [0.5 * np.mean((y - raw) ** 2) for raw in staged_raw_predict(gbm, X)]
        assert losses[-1] < losses[0]
        # Least-squares stages are Newton steps on a quadratic: each one
        # lowers the training loss.
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_staged_predict_converges(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=20).fit(X, y)
        stages = list(staged_raw_predict(gbm, X[:5]))
        assert len(stages) == 20
        np.testing.assert_allclose(stages[-1], gbm.predict(X[:5]))

    @pytest.mark.parametrize("width", [8, 2], ids=["wider", "narrower"])
    def test_staged_predict_checks_feature_count(self, regression_data, width):
        # A 4-feature model rejects any other width, in the staged view
        # exactly as in predict.
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=3).fit(X[:, :4], y)
        bad = np.resize(X[:5], (5, width))
        with pytest.raises(ValueError) as from_predict:
            gbm.predict(bad)
        with pytest.raises(ValueError) as from_staged:
            next(staged_raw_predict(gbm, bad))
        assert str(from_staged.value) == str(from_predict.value)
        assert f"X has {width} features" in str(from_staged.value)

    def test_classifier_accuracy(self, classification_data):
        X, y = classification_data
        clf = GradientBoostingClassifier(n_estimators=40).fit(X, y)
        assert accuracy(y, clf.predict(X)) > 0.9

    def test_classifier_proba_bounds(self, classification_data):
        X, y = classification_data
        clf = GradientBoostingClassifier(n_estimators=20).fit(X, y)
        proba = clf.predict_proba(X)
        assert (proba >= 0).all() and (proba <= 1).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_classifier_single_class(self):
        X = np.random.default_rng(0).normal(size=(15, 3))
        clf = GradientBoostingClassifier(n_estimators=5).fit(X, np.zeros(15, int))
        assert (clf.predict(X) == 0).all()

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError, match="n_estimators"):
            GradientBoostingRegressor(n_estimators=0).fit(
                np.zeros((10, 2)), np.zeros(10)
            )

    @pytest.mark.parametrize(
        "model,param,value",
        [
            (model, param, value)
            for model in (GradientBoostingRegressor, GradientBoostingClassifier)
            for param, value in (
                ("max_depth", 2.5),
                ("max_depth", 0),
                ("max_depth", None),
                ("max_bins", 2.5),
                ("max_bins", 1),
                ("max_bins", 257),
                ("n_estimators", 2.5),
                ("n_estimators", 0),
            )
        ],
    )
    def test_integer_params_checked_before_binning(
        self, monkeypatch, classification_data, model, param, value
    ):
        # A float once trained silently (max_depth=2.5 grew depth-2 trees)
        # or failed with a bare TypeError from range(). Each is now a
        # ValueError naming the parameter, raised before any binning.
        # max_depth=None (unlimited) is gone with the standalone tree.
        X, y = classification_data

        def no_binning(self, X):
            raise AssertionError("binned before the parameters were checked")

        monkeypatch.setattr("repro.learn.tree._Binner.fit", no_binning)
        with pytest.raises(ValueError, match=param):
            model(**{param: value}).fit(X, y)

    def test_numpy_integer_params_accepted(self, regression_data):
        X, y = regression_data
        kw = dict(n_estimators=np.int64(5), max_depth=np.int32(2))
        a = GradientBoostingRegressor(**kw).fit(X, y)
        b = GradientBoostingRegressor(n_estimators=5, max_depth=2).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_deterministic_given_seed(self, regression_data):
        # Fitting draws no random numbers: two fits agree bit for bit.
        X, y = regression_data
        a = GradientBoostingRegressor(n_estimators=10).fit(X, y)
        b = GradientBoostingRegressor(n_estimators=10).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))


class TestLinearModels:
    def test_logistic_accuracy(self, classification_data):
        X, y = classification_data
        m = LogisticRegression().fit(X, y)
        assert accuracy(y, m.predict(X)) > 0.9

    def test_logistic_proba_monotone_in_score(self, classification_data):
        X, y = classification_data
        m = LogisticRegression().fit(X, y)
        scores = m.decision_function(X)
        proba = m.predict_proba(X)[:, 1]
        order = np.argsort(scores)
        assert (np.diff(proba[order]) >= -1e-12).all()

    def test_logistic_single_class(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        m = LogisticRegression().fit(X, np.ones(10, dtype=int))
        assert (m.predict(X) == 1).all()


class TestSvm:
    def test_linear_svc_separable(self, classification_data):
        X, y = classification_data
        m = LinearSVC(random_state=0).fit(X, y)
        assert accuracy(y, m.predict(X)) > 0.85

    def test_ocsvm_flags_far_points(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(300, 3))
        m = OneClassSVM(nu=0.1, random_state=0).fit(X)
        far = np.full((5, 3), 8.0)
        assert (m.predict(far) == -1).all()

    def test_ocsvm_training_outlier_fraction_near_nu(self):
        gen = np.random.default_rng(1)
        X = gen.normal(size=(400, 4))
        m = OneClassSVM(nu=0.2, random_state=0).fit(X)
        frac = (m.predict(X) == -1).mean()
        assert 0.1 < frac < 0.35

    def test_ocsvm_invalid_nu(self):
        with pytest.raises(ValueError):
            OneClassSVM(nu=0.0).fit(np.zeros((10, 2)))


class TestNeighbors:
    def test_kneighbors_shapes(self, rng):
        X = rng.normal(size=(50, 3))
        nn = NearestNeighbors(n_neighbors=4).fit(X)
        d, i = nn.kneighbors(X[:10], exclude_self=False)
        assert d.shape == (10, 4) and i.shape == (10, 4)

    def test_exclude_self(self, rng):
        X = rng.normal(size=(30, 3))
        nn = NearestNeighbors(n_neighbors=3).fit(X)
        d, i = nn.kneighbors()
        assert (d[:, 0] > 0).all()
        assert (i != np.arange(30)[:, None]).all()

    def test_sorted_distances(self, rng):
        X = rng.normal(size=(40, 2))
        nn = NearestNeighbors(n_neighbors=5).fit(X)
        d, _ = nn.kneighbors()
        assert (np.diff(d, axis=1) >= 0).all()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            NearestNeighbors(n_neighbors=0).fit(np.zeros((5, 2)))


class TestKMeans:
    def test_recovers_blobs(self):
        gen = np.random.default_rng(0)
        X = np.vstack(
            [gen.normal(c, 0.2, size=(50, 2)) for c in [(0, 0), (5, 5), (0, 5)]]
        )
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        # Each blob maps to one dominant cluster.
        for blob in range(3):
            labels = km.labels_[blob * 50 : (blob + 1) * 50]
            counts = np.bincount(labels, minlength=3)
            assert counts.max() >= 45

    def test_inertia_decreases_with_k(self, rng):
        X = rng.normal(size=(100, 3))
        i2 = KMeans(n_clusters=2, random_state=0).fit(X).inertia_
        i8 = KMeans(n_clusters=8, random_state=0).fit(X).inertia_
        assert i8 < i2

    def test_too_many_clusters(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=10).fit(np.zeros((5, 2)))


class TestScalers:
    def test_standard_scaler(self, rng):
        X = rng.normal(5, 3, size=(200, 4))
        Z = StandardScaler().fit(X).transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_standard_scaler_constant_feature(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit(X).transform(X)
        assert np.isfinite(Z).all()

    def test_scaler_feature_mismatch(self, rng):
        X = rng.normal(size=(20, 3))
        sc = StandardScaler().fit(X)
        with pytest.raises(ValueError):
            sc.transform(X[:, :2])
