"""Parity suite for the batched detector *fit* paths.

PR 5 vectorized detector scoring against preserved loop references; this file
does the same for the fit-phase batching: the level-synchronous IForest
builder, stacked MCD C-step trials, batched k-means restarts, blocked Pegasos
solvers, and the kNN-sparse SOS binding matrix. Each optimized arm is pinned
to a ``_reference_*`` loop implementation — bit-identical where the RNG
stream is preserved and the arithmetic is unchanged, ≤1e-8 rtol where the
batched arithmetic reorders floating-point reductions — on random,
duplicate-row, and constant-feature inputs.

``benchmarks/perf/bench_detector_fits.py`` imports the references here as
its "before" arms.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2
from test_detector_vectorization import REFERENCE_FOREST_FITS

from repro.learn.cluster import KMeans, _kmeans_plus_plus
from repro.learn.svm import LinearSVC, OneClassSVM
from repro.outliers import CBLOF, MCD, SOS, IForest, XGBOD
from repro.outliers.mcd import _det_cov, _mahalanobis_sq
from repro.outliers.ocsvm import OCSVMDetector
from repro.utils.validation import check_array, check_random_state

RTOL = 1e-8
ATOL = 1e-10


# ---------------------------------------------------------------------------
# Loop references (the pre-batching fit implementations, preserved verbatim)
# ---------------------------------------------------------------------------

class _ReferenceMCD(MCD):
    """Per-trial FastMCD loop: one C-step recursion per random subset."""

    def _fit(self, X):
        rng = check_random_state(self.random_state)
        n, d = X.shape
        if self.support_fraction is None:
            h = (n + d + 1) // 2
        else:
            if not 0.5 <= self.support_fraction <= 1.0:
                raise ValueError("support_fraction must be in [0.5, 1].")
            h = int(np.ceil(self.support_fraction * n))
        h = min(max(h, d + 1), n)
        best = None
        for _ in range(max(1, self.n_trials)):
            idx = rng.choice(n, size=min(max(d + 1, 2), n), replace=False)
            mean, cov, _ = _det_cov(X[idx])
            for _ in range(self.n_csteps):
                dist = _mahalanobis_sq(X, mean, cov)
                subset = np.argsort(dist)[:h]
                mean, cov, logdet = _det_cov(X[subset])
            if best is None or logdet < best[2]:
                best = (mean, cov, logdet)
        mean, cov, _ = best
        dist = _mahalanobis_sq(X, mean, cov)
        cutoff = chi2.ppf(0.975, df=d)
        med = np.median(dist)
        correction = med / max(chi2.ppf(0.5, df=d), 1e-12)
        cov = cov * correction
        inliers = _mahalanobis_sq(X, mean, cov) <= cutoff
        if inliers.sum() > d + 1:
            mean, cov, _ = _det_cov(X[inliers])
        self.location_ = mean
        self.covariance_ = cov


class _ReferenceKMeans(KMeans):
    """Sequential n_init restarts, per-cluster Lloyd update loop."""

    def _lloyd(self, X, rng):
        k = self.n_clusters
        centers = _kmeans_plus_plus(X, k, rng)
        labels = np.zeros(X.shape[0], dtype=np.int64)
        inertia = np.inf
        for _ in range(self.max_iter):
            d2 = (
                np.sum(X**2, axis=1)[:, None]
                - 2.0 * X @ centers.T
                + np.sum(centers**2, axis=1)[None, :]
            )
            labels = np.argmin(d2, axis=1)
            new_inertia = float(d2[np.arange(X.shape[0]), labels].sum())
            new_centers = centers.copy()
            for j in range(k):
                members = X[labels == j]
                if members.shape[0] > 0:
                    new_centers[j] = members.mean(axis=0)
                else:
                    far = int(np.argmax(d2[np.arange(X.shape[0]), labels]))
                    new_centers[j] = X[far]
            shift = float(np.max(np.abs(new_centers - centers)))
            centers = new_centers
            if abs(inertia - new_inertia) <= self.tol or shift <= self.tol:
                inertia = new_inertia
                break
            inertia = new_inertia
        return centers, labels, inertia

    def fit(self, X, y=None):
        X = check_array(X)
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1.")
        if X.shape[0] < self.n_clusters:
            raise ValueError(
                f"n_samples={X.shape[0]} < n_clusters={self.n_clusters}."
            )
        rng = check_random_state(self.random_state)
        best = None
        for _ in range(max(1, self.n_init)):
            centers, labels, inertia = self._lloyd(X, rng)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia)
        self.cluster_centers_, self.labels_, self.inertia_ = best
        self.n_features_in_ = X.shape[1]
        return self


def _reference_linear_svc(**kwargs):
    """The per-sample Pegasos loop is the in-tree ``solver="stream"`` arm."""
    return LinearSVC(solver="stream", **kwargs)


def _reference_ocsvm(**kwargs):
    """The per-sample projected-SGD loop is ``solver="stream"``."""
    return OneClassSVM(solver="stream", **kwargs)


def _reference_sos(**kwargs):
    """The exact (n, n) affinity matrix is the ``binding="dense"`` arm."""
    return SOS(binding="dense", **kwargs)


REFERENCE_FITTERS = {
    "MCD": _ReferenceMCD,
    "KMEANS": _ReferenceKMeans,
    "LINEAR_SVC": _reference_linear_svc,
    "OCSVM_MODEL": _reference_ocsvm,
    "SOS": _reference_sos,
}


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def _make_dataset(kind, n=180, d=5, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[-max(n // 20, 3):] += 5.0
    if kind == "duplicates":
        X = np.vstack([X, np.tile(X[:8], (3, 1))])
    elif kind == "constant":
        X[:, 2] = 1.5
        X[:, 4] = np.round(X[:, 4])
    return np.ascontiguousarray(X)


DATASET_KINDS = ["random", "duplicates", "constant"]


# ---------------------------------------------------------------------------
# IForest: level-synchronous batched builder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_iforest_batched_build_is_deterministic(kind):
    """Same-seed batched builds are bit-identical run-to-run."""
    X = _make_dataset(kind)
    a = IForest(n_estimators=20, random_state=5).fit(X)
    b = IForest(n_estimators=20, random_state=5).fit(X.copy())
    assert a.forest_.feature.tobytes() == b.forest_.feature.tobytes()
    assert a.forest_.threshold.tobytes() == b.forest_.threshold.tobytes()
    assert a.forest_.left.tobytes() == b.forest_.left.tobytes()
    assert a.forest_.right.tobytes() == b.forest_.right.tobytes()
    assert a.forest_.size.tobytes() == b.forest_.size.tobytes()
    assert np.array_equal(a.decision_scores_, b.decision_scores_)


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_iforest_batched_trees_are_valid_isolation_trees(kind):
    """Structural invariants: sizes telescope, splits partition, leaves end."""
    X = _make_dataset(kind)
    det = IForest(n_estimators=10, random_state=1).fit(X)
    psi = det._psi
    for tree in det.trees_:
        assert tree.size[0] == psi
        internal = np.nonzero(tree.feature >= 0)[0]
        leaves = np.nonzero(tree.feature < 0)[0]
        np.testing.assert_array_equal(
            tree.size[internal],
            tree.size[tree.left[internal]] + tree.size[tree.right[internal]],
        )
        assert np.all(tree.size[internal] >= 2)
        assert np.all(tree.size[leaves] >= 1)
        assert np.all(np.isnan(tree.threshold[leaves]))
        assert np.all(tree.left[leaves] == -1)
        # Thresholds must lie within the node's split-feature range: every
        # split produces two non-empty children.
        assert np.all(tree.size[tree.left[internal]] >= 1)
        assert np.all(tree.size[tree.right[internal]] >= 1)


def test_iforest_batched_matches_loop_built_quality():
    """Batched and loop-built forests separate the same planted anomalies."""
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (280, 6)), rng.normal(7, 0.5, (20, 6))])
    batched = IForest(random_state=3).fit(X)
    loop_built = REFERENCE_FOREST_FITS["IFOREST"](random_state=3).fit(X)
    s_b = batched.decision_scores_
    s_l = loop_built.decision_scores_
    # Identical anomaly separation: the 20 planted outliers top both lists.
    top_b = set(np.argsort(s_b)[-20:])
    top_l = set(np.argsort(s_l)[-20:])
    assert top_b == top_l == set(range(280, 300))
    assert np.corrcoef(s_b, s_l)[0, 1] > 0.9


def test_iforest_batched_all_constant_rows():
    """No splittable feature anywhere: every tree is a single leaf."""
    X = np.ones((40, 3))
    det = IForest(n_estimators=5, random_state=0).fit(X)
    for tree in det.trees_:
        assert tree.feature.shape[0] == 1
        assert tree.feature[0] == -1
    assert np.all(np.isfinite(det.decision_scores_))


def test_xgbod_pool_inherits_batched_builds():
    """XGBOD's default-pool IForests build deterministically."""
    X = _make_dataset("random")
    y = (np.arange(X.shape[0]) % 5 == 0).astype(np.int64)
    a = XGBOD(n_estimators=10, random_state=2).fit(X, y)
    b = XGBOD(n_estimators=10, random_state=2).fit(X.copy(), y.copy())
    np.testing.assert_array_equal(a.decision_scores_, b.decision_scores_)


# ---------------------------------------------------------------------------
# MCD: stacked C-step trials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_mcd_matches_reference_loop(kind):
    """Batched trials consume the same RNG stream and concentrate to the
    same robust location/scatter (≤1e-8 rtol: the stacked covariance and
    distance reductions reorder float sums)."""
    X = _make_dataset(kind)
    cur = MCD(random_state=4).fit(X)
    ref = _ReferenceMCD(random_state=4).fit(X.copy())
    np.testing.assert_allclose(
        cur.location_, ref.location_, rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        cur.covariance_, ref.covariance_, rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        cur.decision_scores_, ref.decision_scores_, rtol=RTOL, atol=ATOL
    )


def test_mcd_batched_is_deterministic():
    X = _make_dataset("random")
    a = MCD(random_state=11).fit(X)
    b = MCD(random_state=11).fit(X.copy())
    assert a.location_.tobytes() == b.location_.tobytes()
    assert a.covariance_.tobytes() == b.covariance_.tobytes()


def test_mcd_validates_trial_knobs():
    with pytest.raises(ValueError, match="n_trials"):
        MCD(n_trials=0)
    with pytest.raises(ValueError, match="n_csteps"):
        MCD(n_csteps=0)
    with pytest.raises(ValueError, match="n_trials"):
        MCD(n_trials=-2)


def test_mcd_single_trial_and_step():
    """The minimal configuration still fits (no empty batched shapes)."""
    X = _make_dataset("random", n=60)
    cur = MCD(n_trials=1, n_csteps=1, random_state=0).fit(X)
    ref = _ReferenceMCD(n_trials=1, n_csteps=1, random_state=0).fit(X.copy())
    np.testing.assert_allclose(cur.location_, ref.location_, rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------------
# KMeans: batched restarts + vectorized Lloyd update
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_kmeans_matches_reference_loop(kind):
    """All-restart batching preserves the seeding stream; labels are exact
    and centers match to reduction-reorder tolerance."""
    X = _make_dataset(kind)
    cur = KMeans(n_clusters=4, random_state=2).fit(X)
    ref = _ReferenceKMeans(n_clusters=4, random_state=2).fit(X.copy())
    np.testing.assert_array_equal(cur.labels_, ref.labels_)
    np.testing.assert_allclose(
        cur.cluster_centers_, ref.cluster_centers_, rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        cur.inertia_, ref.inertia_, rtol=1e-9, atol=1e-9
    )


def test_kmeans_empty_cluster_reseed_matches_reference():
    """k far above the natural cluster count exercises the reseed path."""
    rng = np.random.default_rng(9)
    X = np.vstack(
        [rng.normal(0, 0.01, (25, 3)), rng.normal(10, 0.01, (25, 3))]
    )
    cur = KMeans(n_clusters=8, random_state=1).fit(X)
    ref = _ReferenceKMeans(n_clusters=8, random_state=1).fit(X.copy())
    np.testing.assert_allclose(cur.inertia_, ref.inertia_, rtol=1e-9, atol=1e-12)


def test_kmeans_single_cluster_and_duplicates():
    X = np.repeat(np.random.default_rng(1).normal(size=(20, 3)), 3, axis=0)
    cur = KMeans(n_clusters=1, random_state=0).fit(X)
    ref = _ReferenceKMeans(n_clusters=1, random_state=0).fit(X.copy())
    np.testing.assert_allclose(
        cur.cluster_centers_, ref.cluster_centers_, rtol=RTOL, atol=ATOL
    )


def test_cblof_rides_on_batched_kmeans():
    """CBLOF (whose fit is the k-means call) stays deterministic and sane."""
    X = _make_dataset("random")
    a = CBLOF(random_state=0).fit(X)
    b = CBLOF(random_state=0).fit(X.copy())
    np.testing.assert_array_equal(a.decision_scores_, b.decision_scores_)
    assert np.all(np.isfinite(a.decision_scores_))


# ---------------------------------------------------------------------------
# Pegasos: blocked solver arms
# ---------------------------------------------------------------------------

def test_linear_svc_batch_size_one_replays_stream_schedule():
    """With one-row blocks the closed-form decay telescoping reduces to the
    per-sample recursion: same permutations, same updates, ≤1e-8."""
    X = _make_dataset("random")
    y = (X[:, 0] > 0.2).astype(float)
    stream = _reference_linear_svc(max_iter=10, random_state=3).fit(X, y)
    batch = LinearSVC(
        solver="batch", batch_size=1, max_iter=10, random_state=3
    ).fit(X, y)
    np.testing.assert_allclose(batch.coef_, stream.coef_, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        batch.intercept_, stream.intercept_, rtol=RTOL, atol=ATOL
    )


def test_linear_svc_batch_flag_parity_at_tier1():
    """Blocked updates must produce the same flags the stream arm does on a
    separable tier-1-style problem (Wrangler's usage), both class weights."""
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(1.2, 1, (120, 6)), rng.normal(-1.2, 1, (120, 6))])
    y = np.r_[np.ones(120), np.zeros(120)]
    for cw in (None, "balanced"):
        stream = _reference_linear_svc(
            max_iter=30, random_state=0, class_weight=cw
        ).fit(X, y)
        batch = LinearSVC(
            solver="batch", max_iter=30, random_state=0, class_weight=cw
        ).fit(X, y)
        agree = float(np.mean(stream.predict(X) == batch.predict(X)))
        assert agree >= 0.97, f"flag agreement {agree} (class_weight={cw})"


def test_linear_svc_batch_deterministic_and_validated():
    X = _make_dataset("random")
    y = (X[:, 1] > 0).astype(float)
    a = LinearSVC(solver="batch", random_state=1).fit(X, y)
    b = LinearSVC(solver="batch", random_state=1).fit(X.copy(), y.copy())
    assert a.coef_.tobytes() == b.coef_.tobytes()
    assert a.intercept_ == b.intercept_
    with pytest.raises(ValueError):
        LinearSVC(solver="sgd")
    with pytest.raises(ValueError):
        LinearSVC(batch_size=0)


def test_ocsvm_batch_size_one_replays_stream_schedule():
    X = _make_dataset("random")
    stream = _reference_ocsvm(max_iter=5, random_state=2).fit(X)
    batch = OneClassSVM(
        solver="batch", batch_size=1, max_iter=5, random_state=2
    ).fit(X)
    np.testing.assert_allclose(batch.coef_, stream.coef_, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(batch.rho_, stream.rho_, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_ocsvm_batch_ranks_like_stream(kind):
    """The default blocked arm must rank outliers like the stream loop."""
    X = _make_dataset(kind)
    stream = _reference_ocsvm(random_state=0).fit(X)
    batch = OneClassSVM(solver="batch", random_state=0).fit(X)
    r = np.corrcoef(stream.score_samples(X), batch.score_samples(X))[0, 1]
    assert r > 0.95, f"rank agreement {r} ({kind})"


def test_ocsvm_detector_validates_and_passes_solver():
    with pytest.raises(ValueError, match="nu"):
        OCSVMDetector(nu=0.0)
    with pytest.raises(ValueError, match="nu"):
        OCSVMDetector(nu=1.5)
    with pytest.raises(ValueError, match="n_components"):
        OCSVMDetector(n_components=0)
    X = _make_dataset("random")
    det = OCSVMDetector(random_state=0, solver="stream")
    det.fit(X)
    assert det.model_.solver == "stream"
    det = OCSVMDetector(random_state=0)
    det.fit(X)
    assert det.model_.solver == "batch"
    assert np.all(np.isfinite(det.decision_scores_))


# ---------------------------------------------------------------------------
# SOS: kNN-sparse binding matrix
# ---------------------------------------------------------------------------

def test_sos_knn_full_width_matches_dense():
    """With k = n−1 the sparse path IS the dense binding matrix (modulo the
    KD-tree computing distances without the Gram-trick cancellation)."""
    X = _make_dataset("random", n=120)
    dense = SOS(binding="dense").fit(X)
    sparse = SOS(binding="knn", n_neighbors=X.shape[0] - 1).fit(X)
    np.testing.assert_allclose(
        sparse.decision_scores_, dense.decision_scores_, rtol=1e-8, atol=1e-10
    )


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_sos_knn_truncation_parity(kind):
    """Default-k truncation drops only exponentially small binding mass."""
    X = _make_dataset(kind)
    dense = SOS(binding="dense").fit(X)
    sparse = SOS(binding="knn").fit(X)
    s_d, s_k = dense.decision_scores_, sparse.decision_scores_
    assert np.corrcoef(s_d, s_k)[0, 1] > 0.99
    assert np.abs(s_d - s_k).max() < 0.1
    # The detectors must agree on who the planted outliers are.
    k_top = set(np.argsort(s_k)[-5:])
    d_top = set(np.argsort(s_d)[-5:])
    assert len(k_top & d_top) >= 4


def test_sos_auto_binding_thresholds():
    """auto == dense below the row threshold, == knn above it."""
    small = _make_dataset("random", n=200)
    auto = SOS().fit(small)
    dense = SOS(binding="dense").fit(small)
    np.testing.assert_array_equal(auto.decision_scores_, dense.decision_scores_)
    rng = np.random.default_rng(3)
    big = np.ascontiguousarray(rng.normal(size=(1100, 4)))
    auto = SOS().fit(big)
    knn = SOS(binding="knn").fit(big)
    np.testing.assert_array_equal(auto.decision_scores_, knn.decision_scores_)


def test_sos_knn_transductive_join():
    """Held-out scoring goes through the joint matrix on the sparse path."""
    X = _make_dataset("random", n=150)
    rng = np.random.default_rng(5)
    X_new = np.ascontiguousarray(rng.normal(size=(30, X.shape[1])) + 1.0)
    dense = SOS(binding="dense").fit(X)
    sparse = SOS(binding="knn").fit(X)
    s_d = dense.decision_function(X_new)
    s_k = sparse.decision_function(X_new)
    assert np.corrcoef(s_d, s_k)[0, 1] > 0.99


def test_sos_knn_edge_inputs_finite():
    rng = np.random.default_rng(1)
    dup = np.repeat(rng.normal(size=(40, 4)), 3, axis=0)
    const = np.c_[np.ones(90), rng.normal(size=(90, 3))]
    for X in (dup, const):
        det = SOS(binding="knn").fit(np.ascontiguousarray(X))
        assert np.all(np.isfinite(det.decision_scores_))
        assert np.all(det.decision_scores_ >= 0)
        assert np.all(det.decision_scores_ <= 1.0 + 1e-9)


def test_sos_binding_validation():
    with pytest.raises(ValueError, match="binding"):
        SOS(binding="bogus")
    with pytest.raises(ValueError, match="n_neighbors"):
        SOS(n_neighbors=0)
