"""Tests for the fourteen outlier detectors: a shared contract suite plus
detector-specific behavior checks."""

import numpy as np
import pytest

from repro.outliers import ALL_DETECTORS, XGBOD
from repro.outliers.iforest import average_path_length
from repro.utils.validation import NotFittedError
from yardsticks import roc_auc

UNSUPERVISED = [n for n in ALL_DETECTORS if n != "XGBOD"]


def _make(name, contamination=0.1):
    kwargs = {"contamination": contamination}
    if name in ("CBLOF", "IFOREST", "MCD", "OCSVM", "XGBOD"):
        kwargs["random_state"] = 0
    return ALL_DETECTORS[name](**kwargs)


@pytest.mark.parametrize("name", UNSUPERVISED)
class TestDetectorContract:
    def test_fit_predict_binary(self, name, outlier_data):
        X, _ = outlier_data
        det = _make(name).fit(X)
        pred = det.predict(X)
        assert set(np.unique(pred)) <= {0, 1}

    def test_decision_scores_stored(self, name, outlier_data):
        X, _ = outlier_data
        det = _make(name).fit(X)
        assert det.decision_scores_.shape == (X.shape[0],)
        assert np.isfinite(det.decision_scores_).all()

    def test_threshold_near_contamination(self, name, outlier_data):
        X, _ = outlier_data
        det = _make(name, contamination=0.15).fit(X)
        frac = (det.decision_scores_ > det.threshold_).mean()
        assert frac <= 0.20  # at most contamination (ties can reduce it)

    def test_unfitted_raises(self, name, outlier_data):
        X, _ = outlier_data
        with pytest.raises(NotFittedError):
            _make(name).decision_function(X)

    def test_feature_mismatch(self, name, outlier_data):
        X, _ = outlier_data
        det = _make(name).fit(X)
        with pytest.raises(ValueError):
            det.decision_function(X[:, :2])

    def test_invalid_contamination(self, name, outlier_data):
        X, _ = outlier_data
        with pytest.raises(ValueError):
            _make(name, contamination=0.7).fit(X)


# Detectors whose score should rank the displaced cluster above the bulk.
# Excluded by design, with dedicated tests below: CBLOF (a 10% displaced
# cluster can legitimately count as "large" under the (α, β) rule) and
# KNN/SOD (a dense outlier cluster bigger than the neighborhood hides from
# k-distance-style scores — the classic masking effect).
GLOBAL_DETECTORS = ["HBOS", "IFOREST", "MCD", "OCSVM", "PCA"]


@pytest.mark.parametrize("name", GLOBAL_DETECTORS)
def test_global_detectors_rank_outliers(name, outlier_data):
    X, y = outlier_data
    det = _make(name).fit(X)
    auc = roc_auc(y, det.decision_scores_)
    assert auc > 0.9, f"{name} AUC {auc:.2f}"


def test_knn_with_wide_neighborhood_defeats_masking(outlier_data):
    X, y = outlier_data
    from repro.outliers import KNNDetector

    # k larger than the outlier cluster (20) breaks the masking effect.
    det = KNNDetector(n_neighbors=30).fit(X)
    assert roc_auc(y, det.decision_scores_) > 0.9


def test_sod_scores_isolated_point_high():
    gen = np.random.default_rng(5)
    X = np.vstack([gen.normal(size=(100, 4)), [[6.0, 6.0, 6.0, 6.0]]])
    from repro.outliers import SOD

    det = SOD(n_neighbors=15, ref_set=8).fit(X)
    assert det.decision_scores_[-1] > np.quantile(det.decision_scores_[:-1], 0.9)


def test_lof_detects_local_outlier():
    gen = np.random.default_rng(0)
    dense = gen.normal(0, 0.1, size=(100, 2))
    sparse = gen.normal(5, 2.0, size=(100, 2))
    lone = np.array([[0.8, 0.8]])  # just outside the dense cluster
    X = np.vstack([dense, sparse, lone])
    from repro.outliers import LOF

    det = LOF(n_neighbors=10).fit(X)
    # The lone point near the dense cluster should score higher than the
    # dense cluster's own points.
    assert det.decision_scores_[-1] > np.median(det.decision_scores_[:100])


def test_abod_far_point_scores_high():
    gen = np.random.default_rng(0)
    X = np.vstack([gen.normal(size=(100, 3)), [[10.0, 10.0, 10.0]]])
    from repro.outliers import ABOD

    det = ABOD(n_neighbors=10).fit(X)
    assert det.decision_scores_[-1] >= np.quantile(det.decision_scores_, 0.95)


def test_hbos_out_of_range_penalty(outlier_data):
    X, _ = outlier_data
    from repro.outliers import HBOS

    det = HBOS().fit(X[:180])  # train on the bulk only
    far = np.full((3, X.shape[1]), 100.0)
    assert det.decision_function(far).min() > np.median(det.decision_scores_)


def test_iforest_average_path_length_values():
    np.testing.assert_allclose(average_path_length(np.array([1.0])), [0.0])
    np.testing.assert_allclose(average_path_length(np.array([2.0])), [1.0])
    vals = average_path_length(np.array([10.0, 100.0, 1000.0]))
    assert (np.diff(vals) > 0).all()


def test_iforest_scores_in_unit_interval(outlier_data):
    X, _ = outlier_data
    from repro.outliers import IForest

    det = IForest(n_estimators=30, random_state=0).fit(X)
    assert (det.decision_scores_ > 0).all() and (det.decision_scores_ < 1).all()


@pytest.mark.parametrize("max_samples", [0, -3, 2.5, np.nan])
def test_iforest_invalid_max_samples(max_samples, outlier_data):
    # 0 used to score every row 1.0; the rest failed inside numpy.
    X, _ = outlier_data
    from repro.outliers import IForest

    with pytest.raises(ValueError, match="max_samples"):
        IForest(max_samples=max_samples, random_state=0).fit(X)


@pytest.mark.parametrize("n_components", [0, -1, 2.5, 6])
def test_pca_invalid_n_components(n_components, outlier_data):
    # 0 used to mean "all components" and 2.5 failed later in slicing;
    # outlier_data has 5 features, so 6 is one past the top.
    X, _ = outlier_data
    from repro.outliers import PCADetector

    assert X.shape[1] == 5
    with pytest.raises(ValueError, match="n_components"):
        PCADetector(n_components=n_components).fit(X)


def test_cblof_small_cluster_scored_against_large():
    gen = np.random.default_rng(0)
    big = gen.normal(0, 0.5, size=(150, 2))
    small = gen.normal(6, 0.2, size=(8, 2))
    X = np.vstack([big, small])
    from repro.outliers import CBLOF

    det = CBLOF(n_clusters=3, random_state=0).fit(X)
    assert det.decision_scores_[150:].min() > np.median(det.decision_scores_[:150])


def test_mcd_robust_to_contamination():
    gen = np.random.default_rng(0)
    X = np.vstack([gen.normal(0, 1, size=(150, 2)), gen.normal(10, 0.5, size=(15, 2))])
    from repro.outliers import MCD

    det = MCD(random_state=0).fit(X)
    # Robust location should sit near the bulk mean, not the mixture mean.
    assert np.linalg.norm(det.location_) < 1.0


def test_sos_transductive_flag():
    from repro.outliers import SOS

    assert SOS.transductive is True


def test_sos_scores_are_probabilities(outlier_data):
    X, _ = outlier_data
    from repro.outliers import SOS

    det = SOS().fit(X[:80])
    s = det.decision_scores_
    assert (s >= 0).all() and (s <= 1).all()


def test_lscp_uses_lof_pool(outlier_data):
    X, _ = outlier_data
    from repro.outliers import LSCP

    det = LSCP(neighbor_sizes=[5, 15]).fit(X)
    assert len(det.detectors_) == 2


def test_cof_far_point_scores_high():
    gen = np.random.default_rng(0)
    X = np.vstack([gen.normal(size=(80, 2)), [[9.0, 9.0]]])
    from repro.outliers import COF

    det = COF(n_neighbors=10).fit(X)
    assert det.decision_scores_[-1] > np.quantile(det.decision_scores_[:-1], 0.9)


def test_sod_invalid_refset():
    from repro.outliers import SOD

    with pytest.raises(ValueError):
        SOD(n_neighbors=5, ref_set=10).fit(np.zeros((20, 3)))


class TestXgbod:
    def test_requires_labels(self, outlier_data):
        X, _ = outlier_data
        with pytest.raises(ValueError, match="labels"):
            XGBOD(random_state=0).fit(X)

    def test_supervised_separation(self, outlier_data):
        X, y = outlier_data
        det = XGBOD(n_estimators=20, random_state=0).fit(X, y)
        auc = roc_auc(y, det.decision_function(X))
        assert auc > 0.95

    def test_augmented_features(self, outlier_data):
        X, y = outlier_data
        det = XGBOD(n_estimators=5, random_state=0).fit(X, y)
        assert det._augment(X).shape[1] == X.shape[1] + len(det.detectors_)
