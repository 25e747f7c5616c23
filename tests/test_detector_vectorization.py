"""Parity tests for the batched detector kernels.

The pre-vectorization per-sample Python loops are preserved here as private
``_reference_*`` functions (and thin detector subclasses wired to them,
``REFERENCE_DETECTORS``, which ``tests/test_speed_floors.py`` times as its
reference scoring arm). Every batched kernel must reproduce its loop
reference to ≤1e-8 rtol on random and adversarial (duplicate-row,
constant-feature) inputs, and a replay of each of the 14 outlier detectors
must flag the same tasks at the same times with the reference swapped in,
so the Table-3 metrics are unchanged by the vectorization.
``REFERENCE_FOREST_FITS`` additionally keeps the original per-node
isolation-tree builder, the reference fit arm of the speed floors.

Also covers the shared :class:`~repro.learn.neighbors.NeighborCache` and the
per-row ``exclude_self`` fix for duplicated training points.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.eval import EvaluationConfig, evaluate_all
from repro.eval.baselines import OUTLIER_NAMES
from repro.learn.neighbors import (
    NearestNeighbors,
    clear_neighbor_cache,
    get_neighbor_cache,
    neighbor_cache_disabled,
)
from repro.outliers import (
    ABOD,
    ALL_DETECTORS,
    COF,
    IForest,
    LSCP,
    SOD,
    SOS,
    XGBOD,
)
from repro.outliers import cof, iforest, lscp, sod, sos
from repro.outliers.iforest import _PackedForest, average_path_length
from repro.traces import AlibabaTraceGenerator, GoogleTraceGenerator
from repro.utils.validation import check_random_state

RTOL = 1e-8
ATOL = 1e-12


# ---------------------------------------------------------------------------
# Reference (pre-vectorization) implementations — the original per-sample
# loops, operating on a fitted detector's state. Kept verbatim so the batched
# kernels have a ground truth to match.
# ---------------------------------------------------------------------------


def _reference_abof(point, neighbors):
    """Angle-based outlier factor of one point w.r.t. its neighbors."""
    diffs = neighbors - point  # (k, d)
    sq_norms = np.einsum("ij,ij->i", diffs, diffs)
    # Guard duplicated points.
    valid = sq_norms > 1e-24
    diffs = diffs[valid]
    sq_norms = sq_norms[valid]
    k = diffs.shape[0]
    if k < 2:
        return 0.0
    dots = diffs @ diffs.T  # <a, b>
    weight = np.outer(sq_norms, sq_norms)  # |a|^2 |b|^2
    ratios = dots / weight  # <a,b> / (|a|^2 |b|^2)
    inv_norm_prod = 1.0 / np.sqrt(weight)  # 1 / (|a||b|)
    iu = np.triu_indices(k, 1)
    w = inv_norm_prod[iu]
    r = ratios[iu]
    w_sum = w.sum()
    if w_sum <= 0:
        return 0.0
    mean = np.sum(w * r) / w_sum
    var = np.sum(w * (r - mean) ** 2) / w_sum
    return float(var)


def _reference_abod_scores(det, X):
    _, idx = det._kneighbors(det.nn_, X)
    train = det.nn_._fit_X_
    scores = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        scores[i] = -_reference_abof(X[i], train[idx[i]])
    return scores


def _reference_chaining_distance(points):
    """Average chaining distance of the SBN trail rooted at points[0]."""
    m = points.shape[0]
    r = m - 1
    if r < 1:
        return 0.0
    D = np.sqrt(
        np.maximum(
            np.sum(points**2, axis=1)[:, None]
            - 2.0 * points @ points.T
            + np.sum(points**2, axis=1)[None, :],
            0.0,
        )
    )
    visited = np.zeros(m, dtype=bool)
    visited[0] = True
    costs = np.empty(r)
    dist_to_set = D[0].copy()
    for step in range(r):
        dist_to_set[visited] = np.inf
        j = int(np.argmin(dist_to_set))
        costs[step] = dist_to_set[j]
        visited[j] = True
        dist_to_set = np.minimum(dist_to_set, D[j])
    weights = 2.0 * (r + 1 - np.arange(1, r + 1)) / (r * (r + 1))
    return float(np.sum(weights * costs))


def _reference_cof_train_ac(det):
    X = det.nn_._fit_X_
    _, idx = det.nn_.kneighbors()
    return np.array(
        [
            _reference_chaining_distance(np.vstack([X[i : i + 1], X[idx[i]]]))
            for i in range(X.shape[0])
        ]
    )


def _reference_cof_scores(det, X):
    _, idx = det._kneighbors(det.nn_, X)
    train = det.nn_._fit_X_
    scores = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        ac = _reference_chaining_distance(np.vstack([X[i : i + 1], train[idx[i]]]))
        neighbor_ac = det._ac_train_[idx[i]].mean()
        scores[i] = ac / max(neighbor_ac, 1e-12)
    return scores


def _reference_binding_probabilities(D2, perplexity, tol=1e-4, max_iter=60):
    """Row-stochastic binding matrix B via per-row scalar bisection."""
    n = D2.shape[0]
    B = np.zeros((n, n))
    log_perp = np.log(perplexity)
    for i in range(n):
        beta_lo, beta_hi = 0.0, np.inf
        beta = 1.0
        d = np.delete(D2[i], i)
        for _ in range(max_iter):
            aff = np.exp(-d * beta)
            s = aff.sum()
            if s <= 0:
                h = 0.0
                p = np.zeros_like(aff)
            else:
                p = aff / s
                h = -np.sum(p[p > 0] * np.log(p[p > 0]))  # Shannon entropy
            diff = h - log_perp
            if abs(diff) < tol:
                break
            if diff > 0:  # entropy too high -> sharpen
                beta_lo = beta
                if np.isfinite(beta_hi):
                    beta = 0.5 * (beta + beta_hi)
                else:
                    beta = beta * 2.0
            else:
                beta_hi = beta
                beta = 0.5 * (beta + beta_lo)
        row = np.zeros(n)
        row[np.arange(n) != i] = p
        B[i] = row
    return B


def _reference_sos_joint_scores(det, X):
    D2 = np.sum(X**2, axis=1)[:, None] - 2.0 * X @ X.T + np.sum(X**2, axis=1)[None, :]
    np.maximum(D2, 0.0, out=D2)
    perp = min(sos._PERPLEXITY, X.shape[0] - 1)
    B = _reference_binding_probabilities(D2, perp)
    with np.errstate(divide="ignore"):
        log1m = np.log(np.maximum(1.0 - B, 1e-12))
    return np.exp(log1m.sum(axis=0))


def _reference_sos_scores(det, X):
    if X.shape == det._train_X_.shape and np.array_equal(X, det._train_X_):
        return _reference_sos_joint_scores(det, X)
    joint = np.vstack([det._train_X_, X])
    return _reference_sos_joint_scores(det, joint)[det._train_X_.shape[0] :]


def _reference_sod_reference_set(det, idx_query):
    """Pick the l training points sharing the most neighbors."""
    candidates = np.unique(idx_query)
    sims = np.array(
        [
            np.intersect1d(
                idx_query, det._train_knn_[c], assume_unique=False
            ).shape[0]
            for c in candidates
        ]
    )
    order = np.argsort(sims)[::-1]
    return candidates[order[: det._l]]


def _reference_sod_scores(det, X):
    _, idx = det._kneighbors(det.nn_, X)
    train = det.nn_._fit_X_
    scores = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        ref = train[_reference_sod_reference_set(det, idx[i])]
        mean = ref.mean(axis=0)
        var = ref.var(axis=0)
        mean_var = var.mean()
        keep = var < sod._ALPHA * mean_var
        if not keep.any():
            scores[i] = 0.0
            continue
        diff = (X[i] - mean)[keep]
        scores[i] = float(np.sqrt(np.sum(diff**2)) / keep.sum())
    return scores


def _reference_lscp_scores(det, X):
    exclude_self = det.region_nn_.is_self_query(X)
    test_scores = np.column_stack([d.decision_function(X) for d in det.detectors_])
    test_scores_z = lscp._zscore(test_scores)
    _, region_idx = det.region_nn_.kneighbors(X, exclude_self=exclude_self)
    n_det = len(det.detectors_)
    top_k = min(lscp._TOP_K, n_det)
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        local = region_idx[i]
        pseudo = det._pseudo_[local]
        pseudo_c = pseudo - pseudo.mean()
        denom_p = np.sqrt(np.sum(pseudo_c**2))
        corrs = np.zeros(n_det)
        for j in range(n_det):
            s = det._train_scores_z_[local, j]
            s_c = s - s.mean()
            denom = denom_p * np.sqrt(np.sum(s_c**2))
            corrs[j] = np.sum(pseudo_c * s_c) / denom if denom > 0 else 0.0
        best = np.argsort(corrs)[::-1][:top_k]
        out[i] = test_scores_z[i, best].mean()
    return out


class _ReferenceIsolationTree:
    """The original per-node, list-append tree builder.

    Uses per-node ``rng.choice`` / ``rng.uniform`` calls. The shipping
    level-synchronous builder draws its splits from counter-seeded streams
    instead, so the two grow different (equally valid) trees over the same
    subsamples; ``REFERENCE_FOREST_FITS`` wires this one into detectors.
    """

    def __init__(self, X, rng, max_depth):
        feature, threshold, left, right, size = [], [], [], [], []

        def new_node():
            feature.append(-1)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
            size.append(0)
            return len(feature) - 1

        root = new_node()
        stack = [(root, np.arange(X.shape[0]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            size[node] = idx.shape[0]
            if depth >= max_depth or idx.shape[0] <= 1:
                continue
            sub = X[idx]
            lo = sub.min(axis=0)
            hi = sub.max(axis=0)
            candidates = np.nonzero(hi > lo)[0]
            if candidates.shape[0] == 0:
                continue
            f = int(rng.choice(candidates))
            t = float(rng.uniform(lo[f], hi[f]))
            go_left = sub[:, f] <= t
            l_id = new_node()
            r_id = new_node()
            feature[node] = f
            threshold[node] = t
            left[node] = l_id
            right[node] = r_id
            stack.append((l_id, idx[go_left], depth + 1))
            stack.append((r_id, idx[~go_left], depth + 1))

        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.size = np.asarray(size, dtype=np.int64)


def _reference_tree_path_length(tree, X):
    """Per-tree sample walk (the pre-packing per-tree ``path_length``)."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    depth = np.zeros(X.shape[0], dtype=np.float64)
    active = tree.feature[node] != -1
    while np.any(active):
        idx = np.nonzero(active)[0]
        cur = node[idx]
        f = tree.feature[cur]
        go_left = X[idx, f] <= tree.threshold[cur]
        node[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
        depth[idx] += 1.0
        active[idx] = tree.feature[node[idx]] != -1
    depth += average_path_length(tree.size[node])
    return depth


def _unpack_trees(forest):
    """Each tree's node arrays, sliced from the packed table by its root
    offset, with child ids local to the tree again."""
    bounds = np.append(forest.roots, forest.feature.shape[0])
    trees = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        left, right = forest.left[start:stop], forest.right[start:stop]
        trees.append(
            SimpleNamespace(
                feature=forest.feature[start:stop],
                threshold=forest.threshold[start:stop],
                left=np.where(left >= 0, left - start, -1),
                right=np.where(right >= 0, right - start, -1),
                size=forest.size[start:stop],
            )
        )
    return trees


def _reference_forest_scores(trees, psi, X):
    depths = np.zeros(X.shape[0])
    for tree in trees:
        depths += _reference_tree_path_length(tree, X)
    mean_depth = depths / len(trees)
    c = float(average_path_length(np.array([psi]))[0])
    c = max(c, 1e-12)
    return np.power(2.0, -mean_depth / c)


def _reference_iforest_scores(det, X):
    return _reference_forest_scores(_unpack_trees(det.forest_), det._psi, X)


REFERENCE_SCORERS = {
    "ABOD": _reference_abod_scores,
    "COF": _reference_cof_scores,
    "SOS": _reference_sos_scores,
    "SOD": _reference_sod_scores,
    "LSCP": _reference_lscp_scores,
    "IFOREST": _reference_iforest_scores,
}


# Detector subclasses scoring through the loop references — the reference
# arm of tests/test_speed_floors.py and of the replay parity test below.


class _ReferenceABOD(ABOD):
    def _score(self, X):
        return _reference_abod_scores(self, X)


class _ReferenceCOF(COF):
    def _fit(self, X):
        k = min(cof._N_NEIGHBORS, X.shape[0] - 1)
        if k < 1:
            raise ValueError("COF needs at least 2 samples.")
        self._k = k
        self.nn_ = NearestNeighbors(n_neighbors=k).fit(X)
        self._ac_train_ = _reference_cof_train_ac(self)

    def _score(self, X):
        return _reference_cof_scores(self, X)


class _ReferenceSOS(SOS):
    def _score(self, X):
        return _reference_sos_scores(self, X)


class _ReferenceSOD(SOD):
    def _score(self, X):
        return _reference_sod_scores(self, X)


class _ReferenceLSCP(LSCP):
    def _score(self, X):
        return _reference_lscp_scores(self, X)


class _ReferenceIForest(IForest):
    def _fit(self, X):
        super()._fit(X)
        # Unpacked once per fit, so the timed scoring loop walks trees only.
        self._trees = _unpack_trees(self.forest_)

    def _score(self, X):
        return _reference_forest_scores(self._trees, self._psi, X)


def _pool_with_forest(pool, forest_cls):
    """XGBOD's pool with its IForest member rebuilt as ``forest_cls``."""
    return [
        forest_cls(
            n_estimators=d.n_estimators,
            contamination=d.contamination,
            random_state=d.random_state,
        )
        if isinstance(d, IForest)
        else d
        for d in pool
    ]


class _ReferenceXGBOD(XGBOD):
    def _pool(self):
        return _pool_with_forest(super()._pool(), _ReferenceIForest)


REFERENCE_DETECTORS = {
    "ABOD": _ReferenceABOD,
    "COF": _ReferenceCOF,
    "SOS": _ReferenceSOS,
    "SOD": _ReferenceSOD,
    "LSCP": _ReferenceLSCP,
    "IFOREST": _ReferenceIForest,
    "XGBOD": _ReferenceXGBOD,
}


# Forest-backed detectors whose trees come from the per-node loop builder —
# the reference fit arm of tests/test_speed_floors.py. Scoring stays the
# shipping packed walk, so only the build differs.


def _pack_trees(trees):
    """Pad loop-built trees into the ``(T, cap)`` layout the packer takes."""
    n_nodes = np.array([t.feature.shape[0] for t in trees], dtype=np.int64)
    cap = int(n_nodes.max())

    def matrix(attr, fill, dtype):
        out = np.full((len(trees), cap), fill, dtype=dtype)
        for row, tree in zip(out, trees):
            row[: tree.feature.shape[0]] = getattr(tree, attr)
        return out

    return _PackedForest.from_matrices(
        matrix("feature", -1, np.int64),
        matrix("threshold", np.nan, np.float64),
        matrix("left", -1, np.int64),
        matrix("right", -1, np.int64),
        matrix("size", 0, np.int64),
        n_nodes,
    )


class _LoopBuiltIForest(IForest):
    def _fit(self, X):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1.")
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        psi = min(iforest._MAX_SAMPLES, n)
        max_depth = int(np.ceil(np.log2(max(psi, 2))))
        trees = []
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=psi, replace=False)
            trees.append(_ReferenceIsolationTree(X[idx], rng, max_depth))
        self.forest_ = _pack_trees(trees)
        self._psi = psi


class _LoopBuiltXGBOD(XGBOD):
    def _pool(self):
        return _pool_with_forest(super()._pool(), _LoopBuiltIForest)


REFERENCE_FOREST_FITS = {
    "IFOREST": _LoopBuiltIForest,
    "XGBOD": _LoopBuiltXGBOD,
}


# ---------------------------------------------------------------------------
# Fixtures: random and adversarial inputs
# ---------------------------------------------------------------------------


def _make_dataset(kind):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(110, 5))
    X[-6:] += 5.0  # a displaced clump so scores aren't flat
    if kind == "duplicates":
        # Duplicate a block of rows several times: zero-distance neighbor
        # ties, degenerate ABOD difference vectors, zero chaining edges.
        X = np.vstack([X, np.tile(X[:8], (3, 1))])
    elif kind == "constant":
        # A constant column (zero variance in every subspace) plus a
        # near-constant one.
        X[:, 2] = 1.5
        X[:, 4] = np.round(X[:, 4])
    return np.ascontiguousarray(X)


def _make_detector(name):
    return {
        "ABOD": ABOD,
        "COF": COF,
        "SOS": SOS,
        "SOD": SOD,
        "LSCP": LSCP,
        "IFOREST": lambda: IForest(n_estimators=25, random_state=3),
    }[name]()


DETECTOR_NAMES = sorted(REFERENCE_SCORERS)
DATASET_KINDS = ["random", "duplicates", "constant"]


# ---------------------------------------------------------------------------
# Parity: batched kernels vs. loop references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", DATASET_KINDS)
@pytest.mark.parametrize("name", DETECTOR_NAMES)
def test_train_score_parity(name, kind):
    X = _make_dataset(kind)
    det = _make_detector(name).fit(X)
    ref = REFERENCE_SCORERS[name](det, X)
    np.testing.assert_allclose(
        det.decision_scores_,
        ref,
        rtol=RTOL,
        atol=ATOL,
        err_msg=f"{name} batched scores diverge from loop reference ({kind})",
    )


@pytest.mark.parametrize("kind", DATASET_KINDS)
@pytest.mark.parametrize("name", sorted(set(DETECTOR_NAMES) - {"SOS"}))
def test_novel_query_parity(name, kind):
    """Batched scoring of held-out points matches the loop reference."""
    X = _make_dataset(kind)
    rng = np.random.default_rng(11)
    X_new = np.ascontiguousarray(rng.normal(size=(37, X.shape[1])) * 2.0)
    det = _make_detector(name).fit(X)
    got = det.decision_function(X_new)
    ref = REFERENCE_SCORERS[name](det, X_new)
    np.testing.assert_allclose(
        got,
        ref,
        rtol=RTOL,
        atol=ATOL,
        err_msg=f"{name} batched novel-query scores diverge ({kind})",
    )


def test_sos_novel_query_parity():
    """SOS joint (transductive) scoring matches the per-row bisection."""
    X = _make_dataset("random")
    rng = np.random.default_rng(11)
    X_new = np.ascontiguousarray(rng.normal(size=(19, X.shape[1])))
    det = SOS().fit(X)
    np.testing.assert_allclose(
        det.decision_function(X_new),
        _reference_sos_scores(det, X_new),
        rtol=RTOL,
        atol=ATOL,
    )


def test_cof_train_chaining_parity():
    """The batched Prim construction reproduces per-row trail distances."""
    for kind in DATASET_KINDS:
        X = _make_dataset(kind)
        det = COF().fit(X)
        np.testing.assert_allclose(
            det._ac_train_, _reference_cof_train_ac(det), rtol=RTOL, atol=ATOL
        )


def test_xgbod_matches_reference_pool():
    """XGBOD on the loop-scored IForest scores identically."""
    X = _make_dataset("random")
    y = (np.arange(X.shape[0]) % 5 == 0).astype(np.int64)
    cur = XGBOD(random_state=2).fit(X, y)
    ref = _ReferenceXGBOD(random_state=2).fit(X.copy(), y)
    np.testing.assert_allclose(
        cur.decision_scores_, ref.decision_scores_, rtol=RTOL, atol=ATOL
    )


def test_reference_detectors_match_current():
    """The speed floors' reference arm scores identically to the shipping
    classes."""
    X = _make_dataset("random")
    for name in DETECTOR_NAMES:
        det = _make_detector(name).fit(X)
        ref_cls = REFERENCE_DETECTORS[name]
        ref_det = ref_cls(**det.get_params()).fit(X.copy())
        np.testing.assert_allclose(
            det.decision_scores_,
            ref_det.decision_scores_,
            rtol=RTOL,
            atol=ATOL,
            err_msg=name,
        )


@pytest.fixture(scope="module")
def smoke_traces():
    """One job per family, 40–60 tasks."""
    return {
        family: gen(n_jobs=1, task_range=(40, 60), random_state=42).generate()
        for family, gen in (
            ("google", GoogleTraceGenerator),
            ("alibaba", AlibabaTraceGenerator),
        )
    }


@pytest.mark.parametrize("name", OUTLIER_NAMES)
def test_reference_detector_replays_flag_identically(name, smoke_traces, monkeypatch):
    """A Table-3 replay with the loop reference swapped in (and the neighbor
    cache off) flags the same tasks at the same checkpoints, bit for bit.
    Detectors without a loop reference compare cache on against cache off."""
    cfg = EvaluationConfig(n_checkpoints=10, random_state=0)
    for family, trace in smoke_traces.items():
        shipped = evaluate_all(trace, [name], cfg)[name]
        ref_cls = REFERENCE_DETECTORS.get(name, ALL_DETECTORS[name])
        with monkeypatch.context() as m, neighbor_cache_disabled():
            m.setitem(ALL_DETECTORS, name, ref_cls)
            reference = evaluate_all(trace, [name], cfg)[name]
        for got, want in zip(shipped.replays, reference.replays):
            for field in ("y_flag", "flag_times"):
                same = getattr(got, field).tobytes() == getattr(want, field).tobytes()
                assert same, f"{name} {family} job {got.job_id}: {field} differs"


# ---------------------------------------------------------------------------
# exclude_self: duplicated training points
# ---------------------------------------------------------------------------


def test_exclude_self_drops_the_query_point_not_its_duplicate():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    nn = NearestNeighbors(n_neighbors=2).fit(X)
    dist, idx = nn.kneighbors()
    for i in range(3):
        assert i not in idx[i], f"row {i} kept itself as a neighbor"
    # The duplicated rows must keep each other (distance 0), not lose the
    # duplicate to the unconditional drop-first-column rule.
    assert 1 in idx[0] and dist[0].min() == 0.0
    assert 0 in idx[1] and dist[1].min() == 0.0
    np.testing.assert_allclose(np.sort(dist[2]), [np.sqrt(2.0)] * 2)


def test_exclude_self_many_duplicates():
    # More duplicates than neighbor columns: every row still gets k nearest
    # non-self candidates.
    X = np.vstack([np.zeros((5, 2)), np.ones((2, 2))])
    nn = NearestNeighbors(n_neighbors=3).fit(X)
    dist, idx = nn.kneighbors()
    assert idx.shape == (7, 3)
    for i in range(7):
        assert i not in idx[i]
    # A zero-block row's 3 nearest non-self neighbors are all duplicates.
    np.testing.assert_allclose(dist[:5], 0.0)


def test_exclude_self_value_equal_copy():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    nn = NearestNeighbors(n_neighbors=4).fit(X)
    d_self, i_self = nn.kneighbors()
    d_copy, i_copy = nn.kneighbors(X.copy(), exclude_self=nn.is_self_query(X.copy()))
    np.testing.assert_array_equal(i_self, i_copy)
    np.testing.assert_allclose(d_self, d_copy)


def test_is_self_query():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    nn = NearestNeighbors(n_neighbors=3).fit(X)
    assert nn.is_self_query(nn._fit_X_)
    assert nn.is_self_query(X.copy())
    assert not nn.is_self_query(X[:10])
    assert not nn.is_self_query(X + 1e-9)


# ---------------------------------------------------------------------------
# NeighborCache behavior
# ---------------------------------------------------------------------------


def test_cache_shares_trees_and_slices_queries():
    cache = get_neighbor_cache()
    assert cache is not None
    clear_neighbor_cache()
    rng = np.random.default_rng(2)
    X = np.ascontiguousarray(rng.normal(size=(60, 3)))
    nn_a = NearestNeighbors(n_neighbors=5).fit(X)
    nn_b = NearestNeighbors(n_neighbors=9).fit(X)
    assert nn_a.index_ is nn_b.index_, "same matrix must share one index"

    nn_b.warm(n_neighbors=10)
    hits_before = cache.query_hits
    d9, i9 = nn_b.kneighbors()
    d5, i5 = nn_a.kneighbors()
    assert cache.query_hits >= hits_before + 2, "narrow queries must slice"
    np.testing.assert_array_equal(i9[:, :5], i5)
    np.testing.assert_allclose(d9[:, :5], d5)

    with neighbor_cache_disabled():
        assert get_neighbor_cache() is None
        d5_raw, i5_raw = NearestNeighbors(n_neighbors=5).fit(X).kneighbors()
    assert get_neighbor_cache() is cache
    np.testing.assert_array_equal(i5, i5_raw)
    np.testing.assert_allclose(d5, d5_raw)


def test_cache_is_content_keyed():
    cache = get_neighbor_cache()
    clear_neighbor_cache()
    rng = np.random.default_rng(3)
    X = np.ascontiguousarray(rng.normal(size=(25, 2)))
    Y = X.copy()
    builds_before = cache.tree_builds
    value_hits_before = cache.tree_value_hits
    nn_x = NearestNeighbors(n_neighbors=3).fit(X)
    nn_y = NearestNeighbors(n_neighbors=3).fit(Y)
    # Equal values in distinct objects share one index (exact-equality
    # guarded), so cross-worker / cross-method refits reuse the build...
    assert nn_x.index_ is nn_y.index_
    assert cache.tree_builds == builds_before + 1
    assert cache.tree_value_hits >= value_hits_before + 1
    # ...and identical results either way.
    dx, ix = nn_x.kneighbors()
    dy, iy = nn_y.kneighbors()
    np.testing.assert_array_equal(ix, iy)
    np.testing.assert_allclose(dx, dy)
    # Different values never falsely share.
    Z = X + 1e-9
    nn_z = NearestNeighbors(n_neighbors=3).fit(Z)
    assert nn_z.index_ is not nn_x.index_
    assert cache.tree_builds == builds_before + 2


def test_cache_slices_are_tie_safe():
    """A pre-warmed wider query must not change tied neighbor sets.

    With every row duplicated, exact distance ties straddle the slice
    boundary. Neighbours are ordered by (distance, index), so the cache's
    slice of a wider query is the direct query and results never depend on
    cache state.
    """
    base = np.random.default_rng(4).normal(size=(20, 3))
    X = np.ascontiguousarray(np.vstack([base] * 4))  # every row 4x duplicated

    clear_neighbor_cache()
    nn_cold = NearestNeighbors(n_neighbors=5).fit(X)
    d_cold, i_cold = nn_cold.kneighbors()

    clear_neighbor_cache()
    nn_warm = NearestNeighbors(n_neighbors=5).fit(X)
    nn_warm.warm(n_neighbors=31)  # as LSCP's pool priming would
    d_warm, i_warm = nn_warm.kneighbors()

    np.testing.assert_array_equal(i_cold, i_warm)
    np.testing.assert_allclose(d_cold, d_warm)

    # End-to-end: an identity-sensitive detector scores identically whether
    # or not a wider query warmed the cache first.
    clear_neighbor_cache()
    cold_scores = SOD().fit(X).decision_scores_
    clear_neighbor_cache()
    NearestNeighbors(n_neighbors=5).fit(X).warm(n_neighbors=31)
    warm_scores = SOD().fit(X).decision_scores_
    np.testing.assert_allclose(cold_scores, warm_scores, rtol=0, atol=0)


def test_cached_query_results_are_read_only():
    """In-place writes on served results must raise, not corrupt the cache."""
    clear_neighbor_cache()
    rng = np.random.default_rng(5)
    X = np.ascontiguousarray(rng.normal(size=(30, 3)))
    nn = NearestNeighbors(n_neighbors=4).fit(X)
    dist, idx = nn.kneighbors(X, exclude_self=False)
    with pytest.raises((ValueError, RuntimeError)):
        dist += 1.0
    with pytest.raises((ValueError, RuntimeError)):
        idx[:] = 0


def test_cached_scores_match_uncached():
    """End-to-end: detectors score identically with the cache on and off."""
    X = _make_dataset("random")
    for name in DETECTOR_NAMES:
        clear_neighbor_cache()
        cached = _make_detector(name).fit(X).decision_scores_
        with neighbor_cache_disabled():
            uncached = _make_detector(name).fit(X.copy()).decision_scores_
        np.testing.assert_allclose(cached, uncached, rtol=RTOL, atol=ATOL, err_msg=name)
