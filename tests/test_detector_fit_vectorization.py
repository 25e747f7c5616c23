"""Parity suite for the batched detector *fit* paths.

PR 5 vectorized detector scoring against preserved loop references; this file
does the same for the fit-phase batching: the level-synchronous IForest
builder, stacked MCD C-step trials, batched k-means restarts, lockstep
Pegasos (with PU-BG's bags), the blocked one-class SVM solver, and the
kNN-sparse SOS binding matrix. Each optimized arm is pinned to a
``_Reference*`` loop implementation — bit-identical where the RNG stream is
preserved and the arithmetic is unchanged, ≤1e-8 rtol where the batched
arithmetic reorders floating-point reductions — on random, duplicate-row,
and constant-feature inputs.

``tests/test_speed_floors.py`` times the references here against the
batched fits (``detector_fit_aggregate``).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2
from test_detector_vectorization import REFERENCE_FOREST_FITS, _unpack_trees

from repro.learn import cluster, svm
from repro.learn.base import clone
from repro.learn.cluster import KMeans, _kmeans_plus_plus
from repro.learn.svm import (
    LinearSVC,
    OneClassSVM,
    _largest_square_within,
    _ocsvm_blocked_sgd,
)
from repro.outliers import CBLOF, MCD, SOS, IForest, XGBOD, mcd, sos
from repro.outliers.mcd import _chi2_ppf, _det_cov, _mahalanobis_sq
from repro.outliers.ocsvm import OCSVMDetector
from repro.outliers.sos import _KNN_MIN_ROWS
from repro.pu import BaggingPuClassifier, bagging
from repro.utils.validation import check_array, check_random_state, check_X_y

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
        h = min(max((n + d + 1) // 2, d + 1), n)
        best = None
        for _ in range(mcd._N_TRIALS):
            idx = rng.choice(n, size=min(max(d + 1, 2), n), replace=False)
            mean, cov, _ = _det_cov(X[idx])
            for _ in range(mcd._N_CSTEPS):
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
    """Sequential restarts, per-cluster Lloyd update loop."""

    def _lloyd(self, X, rng):
        k = self.n_clusters
        centers = _kmeans_plus_plus(X, k, rng)
        labels = np.zeros(X.shape[0], dtype=np.int64)
        inertia = np.inf
        for _ in range(cluster._MAX_ITER):
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
            if abs(inertia - new_inertia) <= cluster._TOL or shift <= cluster._TOL:
                inertia = new_inertia
                break
            inertia = new_inertia
        return centers, labels, inertia

    def fit(self, X, y=None):
        X = check_array(X)
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1.")
        if X.shape[0] < self.n_clusters:
            raise ValueError(f"n_samples={X.shape[0]} < n_clusters={self.n_clusters}.")
        rng = check_random_state(self.random_state)
        best = None
        for _ in range(cluster._N_INIT):
            centers, labels, inertia = self._lloyd(X, rng)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia)
        self.cluster_centers_, self.labels_, self.inertia_ = best
        self.n_features_in_ = X.shape[1]
        return self


class _ReferenceLinearSVC(LinearSVC):
    """Per-sample Pegasos: one model, one ``X[i] @ w`` and one
    ``np.linalg.norm`` per step (the pre-lockstep stream solver).

    It also records the steps with no hinge violation (``quiet_steps_``,
    1-based) and counts its ball projections (``projections_``): the
    lockstep kernel skips the ball test on a step where no lane violates,
    so the fuzz must show it reaches both that skip and a real projection.
    """

    def fit(self, X, y):
        X, y = check_X_y(X, y, y_numeric=False)
        t = self._targets(X, y)
        if t is not None:
            lam = 1.0 / (svm._SVC_C * X.shape[0])
            rng = check_random_state(self.random_state)
            w, b = self._solve_stream(X, t, lam, rng)
            self.coef_ = w
            self.intercept_ = float(b)
        return self

    def _solve_stream(self, X, t, lam, rng):
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        step = 0
        self.quiet_steps_, self.projections_ = [], 0
        for _ in range(svm._SVC_EPOCHS):
            perm = rng.permutation(n)
            for i in perm:
                step += 1
                eta = 1.0 / (lam * step)
                margin = t[i] * (X[i] @ w + b)
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += eta * t[i] * X[i]
                    b += eta * t[i]
                else:
                    self.quiet_steps_.append(step)
                # Pegasos projection onto the ball of radius 1/sqrt(lam).
                norm = np.linalg.norm(w)
                radius = 1.0 / np.sqrt(lam)
                if norm > radius:
                    w *= radius / norm
                    self.projections_ += 1
        return w, b


class _ReferenceBaggingPu(BaggingPuClassifier):
    """One bag after another, each fitting its own per-sample SVM."""

    def fit(self, X, s):
        X, s = check_X_y(X, s, y_numeric=False)
        s = np.asarray(s).astype(np.int64)
        pos = np.nonzero(s == 1)[0]
        unl = np.nonzero(s == 0)[0]
        rng = check_random_state(self.random_state)
        size = min(pos.shape[0], unl.shape[0])
        base = _ReferenceLinearSVC(random_state=rng)
        self.estimators_ = []
        oob_score = np.zeros(X.shape[0])
        oob_count = np.zeros(X.shape[0])
        for _ in range(bagging._N_BAGS):
            bag = rng.choice(unl, size=size, replace=True)
            Xb = np.vstack([X[pos], X[bag]])
            yb = np.concatenate([np.ones(pos.shape[0]), np.zeros(size)]).astype(int)
            clf = clone(base)
            clf.fit(Xb, yb)
            self.estimators_.append(clf)
            oob = np.setdiff1d(unl, bag)
            if oob.shape[0]:
                oob_score[oob] += clf.decision_function(X[oob])
                oob_count[oob] += 1
        self.oob_decision_ = np.divide(
            oob_score,
            np.maximum(oob_count, 1),
            out=np.zeros_like(oob_score),
            where=oob_count > 0,
        )
        self.n_features_in_ = X.shape[1]
        return self


class _ReferenceOneClassSVM(OneClassSVM):
    """Per-sample projected SGD: one margin and one update per row (the
    pre-blocking solver)."""

    def fit(self, X, y=None):
        X = check_array(X)
        rng = check_random_state(self.random_state)
        gamma = self._gamma(X)
        d = X.shape[1]
        m = svm._OCSVM_COMPONENTS
        self.omega_ = rng.normal(0.0, np.sqrt(2.0 * gamma), size=(d, m))
        self.phase_ = rng.uniform(0.0, 2.0 * np.pi, size=m)
        phi = self._features(X)
        w, _ = self._solve_stream(phi, rng)
        self.coef_ = w
        self.n_features_in_ = d
        self.rho_ = float(np.quantile(phi @ w, self.nu))
        return self

    def _solve_stream(self, phi: np.ndarray, rng, epochs=svm._OCSVM_EPOCHS) -> tuple:
        """Per-sample projected SGD (the historical arm, preserved verbatim)."""
        n = phi.shape[0]
        w = phi.mean(axis=0)
        rho = 0.0
        step = 0
        for _ in range(epochs):
            perm = rng.permutation(n)
            for i in perm:
                step += 1
                eta = 1.0 / step
                margin = phi[i] @ w - rho
                w *= 1.0 - eta
                if margin < 0.0:
                    w += eta / self.nu * phi[i]
                    rho -= eta
                rho += eta * 1.0  # gradient of the -rho term is -1
        return w, rho


class _DenseSOS(SOS):
    """SOS on the exact (n, n) affinity matrix at every size."""

    _sos_scores = SOS._sos_scores_dense


class _KnnSOS(SOS):
    """SOS on the kNN-sparse binding matrix at every size."""

    _sos_scores = SOS._sos_scores_knn


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _make_dataset(kind, n=180, d=5, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[-max(n // 20, 3) :] += 5.0
    if kind == "duplicates":
        X = np.vstack([X, np.tile(X[:8], (3, 1))])
    elif kind == "constant":
        X[:, 2] = 1.5
        X[:, 4] = np.round(X[:, 4])
    return np.ascontiguousarray(X)


DATASET_KINDS = ["random", "duplicates", "constant"]


# ---------------------------------------------------------------------------
# Same-seed determinism of every batched fit
# ---------------------------------------------------------------------------


def _forest_state(det):
    f = det.forest_
    return [f.feature, f.threshold, f.left, f.right, f.size, det.decision_scores_]


#: The six batched fit paths: name -> (fresh estimator, fitted state). The
#: state lists every array a same-seed refit must reproduce byte for byte.
BATCHED_FITS = {
    "IFOREST": (lambda: IForest(n_estimators=20, random_state=5), _forest_state),
    "XGBOD": (lambda: XGBOD(random_state=2), lambda det: [det.decision_scores_]),
    "MCD": (
        lambda: MCD(random_state=11),
        lambda det: [det.location_, det.covariance_, det.decision_scores_],
    ),
    "CBLOF": (
        lambda: CBLOF(random_state=0),
        lambda det: [det.kmeans_.cluster_centers_, det.decision_scores_],
    ),
    "OCSVM": (
        lambda: OCSVMDetector(random_state=0),
        lambda det: [det.model_.coef_, det.decision_scores_],
    ),
    "SOS": (_KnnSOS, lambda det: [det.decision_scores_]),
}


@pytest.mark.parametrize("kind", DATASET_KINDS)
@pytest.mark.parametrize("name", list(BATCHED_FITS))
def test_batched_fit_is_deterministic(name, kind):
    """Same-seed batched fits are bit-identical run to run. The forest
    builder draws from per-node counter-seeded streams, so the batch layout
    cannot leak into the result."""
    make, state = BATCHED_FITS[name]
    X = _make_dataset(kind)
    y = (np.arange(X.shape[0]) % 5 == 0).astype(np.int64)
    a, b = (make().fit(X.copy(), y.copy()) for _ in range(2))
    for got, want in zip(state(a), state(b)):
        assert got.tobytes() == want.tobytes(), name


# ---------------------------------------------------------------------------
# IForest: level-synchronous batched builder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_iforest_batched_trees_are_valid_isolation_trees(kind):
    """Structural invariants: sizes telescope, splits partition, leaves end."""
    X = _make_dataset(kind)
    det = IForest(n_estimators=10, random_state=1).fit(X)
    psi = det._psi
    for tree in _unpack_trees(det.forest_):
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
    for tree in _unpack_trees(det.forest_):
        assert tree.feature.shape[0] == 1
        assert tree.feature[0] == -1
    assert np.all(np.isfinite(det.decision_scores_))


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_xgbod_training_scores_equal_rescoring(kind):
    """``fit`` builds its training scores from the pool's own
    ``decision_scores_``; they equal scoring an equal-valued copy of X
    again, bit for bit, duplicate rows included (the kNN members decide
    self-exclusion by content, not identity)."""
    X = _make_dataset(kind)
    y = (np.arange(X.shape[0]) % 5 == 0).astype(np.int64)
    det = XGBOD(random_state=2).fit(X, y)
    again = det.decision_function(X.copy())
    assert det.decision_scores_.tobytes() == again.tobytes()


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
    np.testing.assert_allclose(cur.location_, ref.location_, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(cur.covariance_, ref.covariance_, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        cur.decision_scores_, ref.decision_scores_, rtol=RTOL, atol=ATOL
    )


@pytest.mark.parametrize("q", [0.5, 0.975])
def test_mcd_chi2_quantiles_match_scipy_stats(q):
    """The cutoff (q = 0.975) and consistency correction (q = 0.5) are
    ``chi2.ppf`` to the last bit for every dimension up to 64."""
    for d in range(1, 65):
        ours = np.float64(_chi2_ppf(q, d))
        assert ours.tobytes() == np.float64(chi2.ppf(q, df=d)).tobytes(), d


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
    np.testing.assert_allclose(cur.inertia_, ref.inertia_, rtol=1e-9, atol=1e-9)


def test_kmeans_empty_cluster_reseed_matches_reference():
    """k far above the natural cluster count exercises the reseed path."""
    rng = np.random.default_rng(9)
    X = np.vstack([rng.normal(0, 0.01, (25, 3)), rng.normal(10, 0.01, (25, 3))])
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
    """CBLOF (whose fit is the k-means call) scores finitely."""
    X = _make_dataset("random")
    assert np.all(np.isfinite(CBLOF(random_state=0).fit(X).decision_scores_))


# ---------------------------------------------------------------------------
# Pegasos: lockstep stream kernel (LinearSVC is K = 1, PU-BG K = n_estimators)
# ---------------------------------------------------------------------------


def _assert_same_bits(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _assert_same_svc(ref, new, X):
    _assert_same_bits(new.coef_, ref.coef_)
    _assert_same_bits(np.float64(new.intercept_), np.float64(ref.intercept_))
    _assert_same_bits(new.decision_function(X), ref.decision_function(X))


def _svc_problem(gen, case):
    n = 2 if case == "n2" else int(gen.integers(3, 40))
    d = int(gen.integers(1, 7))
    X = gen.normal(size=(n, d)) * gen.choice([0.1, 1.0, 30.0])
    y = gen.integers(0, 2, n)
    y[:2] = [0, 1]
    if case == "single":
        y[:] = gen.integers(0, 2)
    elif case == "duplicates":
        X[n // 2 :] = X[: n - n // 2]
    elif case == "constant":
        X[:, gen.integers(d)] = 2.5
    elif case == "projected":
        # Rows far outside the ball of radius sqrt(C·n): the first hinge
        # update already leaves it.
        X *= 1e3
    y = gen.permutation(y)
    if case == "separable":
        # Feature 0 splits the classes with room to spare, so whole epochs
        # pass without a violation once the fit has found it.
        X[:, 0] = (2 * y - 1) * (1.0 + np.abs(X[:, 0]))
    return X, y


SVC_CASES = [
    "random",
    "n2",
    "single",
    "duplicates",
    "constant",
    "projected",
    "separable",
]


@pytest.mark.parametrize("case", SVC_CASES)
def test_linear_svc_lockstep_matches_per_sample_loop(case):
    """Seeded fuzz: a one-lane lockstep fit is the per-sample loop, bit for
    bit."""
    gen = np.random.default_rng(SVC_CASES.index(case))
    quiet = projections = 0
    for _ in range(12):
        X, y = _svc_problem(gen, case)
        seed = int(gen.integers(1000))
        ref = _ReferenceLinearSVC(random_state=seed).fit(X, y)
        new = LinearSVC(random_state=seed).fit(X, y)
        _assert_same_svc(ref, new, X)
        quiet += len(getattr(ref, "quiet_steps_", ()))
        projections += getattr(ref, "projections_", 0)
    if case == "projected":
        assert projections > 0
    if case == "separable":
        assert quiet > 0


@pytest.mark.parametrize("seed", range(4))
def test_ball_threshold_matches_sqrt_test(seed):
    """``w·w > r2`` is ``sqrt(w·w) > radius`` for every double near the
    boundary, at random radii and at 0 and inf."""
    gen = np.random.default_rng(seed)
    radii = np.r_[0.0, np.inf, 10.0 ** gen.uniform(-150, 150, 200)]
    for radius in radii:
        r2 = _largest_square_within(radius)
        assert np.sqrt(r2) <= radius
        if np.isfinite(r2):
            assert np.sqrt(np.nextafter(r2, np.inf)) > radius
        q = [r2]
        for toward in (0.0, np.inf):
            x = r2
            for _ in range(3):
                x = np.nextafter(x, toward)
                q.append(x)
        q = np.array(q)
        np.testing.assert_array_equal(q > r2, np.sqrt(q) > radius)


def _pu_problem(gen, n_pos, n_unl, d=4):
    X = gen.normal(size=(n_pos + n_unl, d))
    X[:n_pos] += 1.0
    s = np.r_[np.ones(n_pos, int), np.zeros(n_unl, int)]
    order = gen.permutation(s.shape[0])
    return X[order], s[order]


@pytest.mark.parametrize(
    "n_pos, n_unl",
    [
        (1, 15),  # bags of one unlabeled row
        (40, 4),  # |pos| >> |unl|: bags clipped to the unlabeled count
        (4, 40),  # |unl| >> |pos|
        (1, 1),
        (12, 15),
        (6, 20),
        (6, 8),
    ],
)
def test_bagging_pu_lockstep_matches_bag_loop(n_pos, n_unl):
    """Seeded fuzz: lockstep bags equal the one-bag-at-a-time loop in every
    fitted SVM, the OOB scores and the decision function, bit for bit."""
    gen = np.random.default_rng(n_pos * 100 + n_unl)
    for _ in range(3):
        X, s = _pu_problem(gen, n_pos, n_unl)
        seed = int(gen.integers(1000))
        ref = _ReferenceBaggingPu(random_state=seed).fit(X, s)
        new = BaggingPuClassifier(random_state=seed).fit(X, s)
        _assert_same_bagging(ref, new, X)


def _assert_same_bagging(ref, new, X):
    assert len(new.estimators_) == len(ref.estimators_)
    for r, m in zip(ref.estimators_, new.estimators_):
        _assert_same_svc(r, m, X)
    _assert_same_bits(new.oob_decision_, ref.oob_decision_)
    _assert_same_bits(new.decision_function(X), ref.decision_function(X))


@pytest.mark.parametrize("case", ["projected", "separable"])
def test_bagging_pu_lockstep_projects_and_skips_quiet_steps(case):
    """Seeded fuzz over the bags that reaches both branches the lockstep
    kernel treats specially: a projection onto the ball, and a step in which
    no bag violates (the same step number is quiet in every reference bag),
    where the kernel skips the ball test."""
    gen = np.random.default_rng(["projected", "separable"].index(case))
    quiet = projections = 0
    for _ in range(3):
        X, s = _pu_problem(gen, 12, 20)
        if case == "projected":
            X *= 1e3
        else:
            X[:, 0] = (2 * s - 1) * (1.0 + np.abs(X[:, 0]))
        seed = int(gen.integers(1000))
        ref = _ReferenceBaggingPu(random_state=seed).fit(X, s)
        new = BaggingPuClassifier(random_state=seed).fit(X, s)
        _assert_same_bagging(ref, new, X)
        quiet += len(set.intersection(*(set(e.quiet_steps_) for e in ref.estimators_)))
        projections += sum(e.projections_ for e in ref.estimators_)
    assert (projections if case == "projected" else quiet) > 0


# ---------------------------------------------------------------------------
# One-class SVM: blocked SGD
# ---------------------------------------------------------------------------


def test_ocsvm_batch_size_one_replays_stream_schedule():
    """With one-row blocks the closed-form decay telescoping reduces to the
    per-sample recursion: same permutations, same updates, ≤1e-8 (the two
    round (s−1)/s and 1 − 1/s differently, so the bits may differ)."""
    X = _make_dataset("random")
    ref = _ReferenceOneClassSVM(random_state=2).fit(X)
    phi = ref._features(X)
    w_s, rho_s = ref._solve_stream(phi, np.random.default_rng(2), 5)
    w_b, rho_b = _ocsvm_blocked_sgd(phi, ref.nu, 5, np.random.default_rng(2), 1)
    np.testing.assert_allclose(w_b, w_s, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(rho_b, rho_s, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_ocsvm_batch_ranks_like_stream(kind):
    """The default blocked arm must rank outliers like the stream loop."""
    X = _make_dataset(kind)
    stream = _ReferenceOneClassSVM(random_state=0).fit(X)
    batch = OneClassSVM(random_state=0).fit(X)
    r = np.corrcoef(stream.score_samples(X), batch.score_samples(X))[0, 1]
    assert r > 0.95, f"rank agreement {r} ({kind})"


def test_ocsvm_detector_fits():
    det = OCSVMDetector(random_state=0).fit(_make_dataset("random"))
    assert np.all(np.isfinite(det.decision_scores_))


# ---------------------------------------------------------------------------
# SOS: kNN-sparse binding matrix
# ---------------------------------------------------------------------------


def test_sos_knn_full_width_matches_dense(monkeypatch):
    """With k = n−1 the sparse path IS the dense binding matrix (modulo the
    KD-tree computing distances without the Gram-trick cancellation)."""
    X = _make_dataset("random", n=120)
    dense = _DenseSOS().fit(X)
    monkeypatch.setattr(sos, "_KNN_NEIGHBORS", X.shape[0] - 1)
    sparse = _KnnSOS().fit(X)
    np.testing.assert_allclose(
        sparse.decision_scores_, dense.decision_scores_, rtol=1e-8, atol=1e-10
    )


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_sos_knn_truncation_parity(kind):
    """Default-k truncation drops only exponentially small binding mass."""
    X = _make_dataset(kind)
    dense = _DenseSOS().fit(X)
    sparse = _KnnSOS().fit(X)
    s_d, s_k = dense.decision_scores_, sparse.decision_scores_
    assert np.corrcoef(s_d, s_k)[0, 1] > 0.99
    assert np.abs(s_d - s_k).max() < 0.1
    # The detectors must agree on who the planted outliers are.
    k_top = set(np.argsort(s_k)[-5:])
    d_top = set(np.argsort(s_d)[-5:])
    assert len(k_top & d_top) >= 4


def test_sos_auto_binding_thresholds():
    """SOS binds densely below ``_KNN_MIN_ROWS`` rows and by kNN above."""
    small = _make_dataset("random", n=200)
    auto = SOS().fit(small)
    dense = _DenseSOS().fit(small)
    np.testing.assert_array_equal(auto.decision_scores_, dense.decision_scores_)
    rng = np.random.default_rng(3)
    big = np.ascontiguousarray(rng.normal(size=(1100, 4)))
    assert small.shape[0] < _KNN_MIN_ROWS <= big.shape[0]
    auto = SOS().fit(big)
    knn = _KnnSOS().fit(big)
    np.testing.assert_array_equal(auto.decision_scores_, knn.decision_scores_)


def test_sos_knn_transductive_join():
    """Held-out scoring goes through the joint matrix on the sparse path."""
    X = _make_dataset("random", n=150)
    rng = np.random.default_rng(5)
    X_new = np.ascontiguousarray(rng.normal(size=(30, X.shape[1])) + 1.0)
    dense = _DenseSOS().fit(X)
    sparse = _KnnSOS().fit(X)
    s_d = dense.decision_function(X_new)
    s_k = sparse.decision_function(X_new)
    assert np.corrcoef(s_d, s_k)[0, 1] > 0.99


def test_sos_knn_edge_inputs_finite():
    rng = np.random.default_rng(1)
    dup = np.repeat(rng.normal(size=(40, 4)), 3, axis=0)
    const = np.c_[np.ones(90), rng.normal(size=(90, 3))]
    for X in (dup, const):
        det = _KnnSOS().fit(np.ascontiguousarray(X))
        assert np.all(np.isfinite(det.decision_scores_))
        assert np.all(det.decision_scores_ >= 0)
        assert np.all(det.decision_scores_ <= 1.0 + 1e-9)
