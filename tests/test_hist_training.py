"""Histogram-binned training and warm-start refits.

Covers the performance machinery added around the GBM stack:

- the feature binner and the histogram split search agree with the exact
  splitter below — identically on low-cardinality data, within tolerance on
  the benchmark trace families;
- ``warm_start`` continuation is exactly equivalent to one big fit;
- NURD's warm-started checkpoint refits keep its Table-3 metrics close to
  an exact-splitter full-refit baseline on both trace families.

The exact splitter lives here as a reference: per node, each feature is
sorted once and prefix sums score every cut in O(n) after the O(n log n)
sort. ``ExactGBR`` and ``ExactGrabit`` are exact-splitter stand-ins for the
shipping boosted models; ``tests/test_speed_floors.py`` times ``ExactGBR``
against the histogram GBR.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from test_gbm_parity import builder_tree

from repro.censored import GrabitRegressor
from repro.core import nurd
from repro.core.nurd import NurdPredictor
from repro.learn import tree as tree_module
from repro.learn.gbm import _LEARNING_RATE, GradientBoostingRegressor
from repro.learn.tree import _Binner
from repro.sim.replay import ReplaySimulator
from yardsticks import r2

# ---------------------------------------------------------------------------
# Exact-splitter reference
# ---------------------------------------------------------------------------

#: Leaf marker of the node arrays, as in the shipping layout.
LEAF = -1


def _best_split_mse(Xf, y):
    """Best threshold on one feature column for MSE.

    Returns ``(gain, threshold)`` where gain is the reduction in total sum of
    squared errors; ``None`` when no legal split exists. The one-pass
    Σy² − (Σy)²/n form cancels catastrophically on large-offset targets.
    """
    order = np.argsort(Xf, kind="mergesort")
    xs = Xf[order]
    ys = y[order]
    n = xs.shape[0]
    if xs[0] == xs[-1]:
        return None
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    total_sum = csum[-1]
    total_sq = csq[-1]
    # Candidate split after position i (1-based left size i+1).
    left_n = np.arange(1, n)
    left_sum = csum[:-1]
    left_sq = csq[:-1]
    right_n = n - left_n
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    sse_left = left_sq - left_sum**2 / left_n
    sse_right = right_sq - right_sum**2 / right_n
    sse_parent = total_sq - total_sum**2 / n
    gain = sse_parent - (sse_left + sse_right)
    # Disallow splitting between equal values; every side keeps a row.
    valid = xs[1:] != xs[:-1]
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]) or gain[best] <= 1e-12:
        return None
    thr = 0.5 * (xs[best] + xs[best + 1])
    return float(gain[best]), float(thr)


def _best_split(X, y):
    """``(feature, threshold)`` of a node's best exact cut, or None when the
    node stays a leaf (fewer than two rows, pure, or no gain)."""
    d = y - np.mean(y)
    if y.shape[0] < 2 or d @ d <= 1e-12:
        return None
    best_gain, best = -np.inf, None
    for f in range(X.shape[1]):
        res = _best_split_mse(X[:, f], y)
        if res is not None and res[0] > best_gain:
            best_gain, best = res[0], (f, res[1])
    return best


@dataclass
class ExactTree:
    """Node arrays of a tree the exact splitter grew, with its own per-tree
    router."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] != LEAF
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = node[idx]
            go_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[node[idx]] != LEAF
        return self.value[node]


def grow_exact_tree(X, y, max_depth):
    """Grow a tree on raw features with the exact splitter. Returns it, with
    each node's mean target as its value, and each training row's leaf."""
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node(rows):
        feature.append(LEAF)
        threshold.append(np.nan)
        left.append(LEAF)
        right.append(LEAF)
        value.append(float(np.mean(y[rows])))
        return len(value) - 1

    leaves = np.zeros(X.shape[0], dtype=np.int64)
    root = np.arange(X.shape[0])
    stack = [(add_node(root), root, 0)]
    while stack:
        node_id, idx, depth = stack.pop()
        split = _best_split(X[idx], y[idx]) if depth < max_depth else None
        if split is None:
            leaves[idx] = node_id
            continue
        feature[node_id], threshold[node_id] = split
        go_left = X[idx, split[0]] <= split[1]
        parts = (idx[go_left], idx[~go_left])
        left[node_id], right[node_id] = ids = [add_node(part) for part in parts]
        stack += [(i, part, depth + 1) for i, part in zip(ids, parts)]
    arrays = (feature, threshold, left, right, value)
    return ExactTree(*(np.asarray(a) for a in arrays)), leaves


class _ExactBoosting:
    """The shipping stage loop's arithmetic with exact trees grown on raw
    features, their own Newton leaf step and a per-tree predict loop. It
    always fits from scratch, so it refuses a warm-started extension."""

    def _boost(self, X, y, loss, warm=False):
        if warm:
            raise NotImplementedError("the exact reference has no warm start")
        self.init_raw_ = loss.init_raw(y)
        raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            residual, hessian = loss.gradients(y, raw)
            tree, leaves = grow_exact_tree(X, residual, self.max_depth)
            n_nodes = tree.value.shape[0]
            rsum = np.bincount(leaves, weights=residual, minlength=n_nodes)
            hsum = np.bincount(leaves, weights=hessian, minlength=n_nodes)
            step = np.divide(rsum, hsum, out=np.zeros(n_nodes), where=hsum >= 1e-12)
            is_leaf = tree.feature == LEAF
            tree.value[is_leaf] = step[is_leaf]
            raw += _LEARNING_RATE * tree.value[leaves]
            self.estimators_.append(tree)
        self.n_features_in_ = X.shape[1]
        return self

    def _raw_predict(self, X):
        X = self._check_predict_input(X)
        raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
        for tree in self.estimators_:
            raw += _LEARNING_RATE * tree.predict(X)
        return raw


class ExactGBR(_ExactBoosting, GradientBoostingRegressor):
    pass


class ExactGrabit(_ExactBoosting, GrabitRegressor):
    pass


class TestBinner:
    def test_codes_roundtrip_split_semantics(self, rng):
        X = rng.normal(size=(300, 4))
        binner = _Binner(max_bins=64).fit(X)
        codes = binner.transform(X)
        # "bin <= b" must equal "x <= edges[b]" for every feature and cut.
        for f in range(4):
            for b in range(binner.n_bins_[f] - 1):
                thr = binner.edges_[f][b]
                np.testing.assert_array_equal(codes[:, f] <= b, X[:, f] <= thr)

    def test_low_cardinality_is_lossless(self, rng):
        X = rng.integers(0, 20, size=(200, 3)).astype(float)
        binner = _Binner().fit(X)
        codes = binner.transform(X)
        for f in range(3):
            # Distinct raw values stay distinct in bin space.
            assert np.unique(codes[:, f]).shape[0] == np.unique(X[:, f]).shape[0]

    def test_bin_count_capped(self, rng):
        X = rng.normal(size=(5000, 2))
        binner = _Binner(max_bins=256).fit(X)
        assert binner.n_total_bins_ <= 256
        assert binner.transform(X).dtype == np.uint8

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError, match="max_bins"):
            _Binner(max_bins=1000)


class TestHistSplitter:
    def test_identical_to_exact_on_low_cardinality(self, rng):
        # Midpoint bins cut where the exact splitter does, so every stage
        # partitions the rows alike (node ids differ: the builders number
        # children in another order).
        X = rng.integers(0, 10, size=(250, 4)).astype(float)
        y = 2.0 * X[:, 0] - X[:, 2] + 0.05 * rng.normal(size=250)
        exact = ExactGBR(n_estimators=10, max_depth=4).fit(X, y)
        hist = GradientBoostingRegressor(n_estimators=10, max_depth=4).fit(X, y)
        stages = hist._packed.leaf_values(X)
        assert len(exact.estimators_) == len(stages)
        for tree, values in zip(exact.estimators_, stages):
            np.testing.assert_allclose(tree.predict(X), values)

    def test_regressor_quality_close(self, regression_data):
        X, y = regression_data
        exact, _ = grow_exact_tree(X, y, max_depth=6)
        _, _, hist = builder_tree(X, y, max_depth=6)
        assert abs(r2(y, exact.predict(X)) - r2(y, hist(X))) < 0.02

    def test_constant_features_single_leaf(self):
        tree, _, _ = builder_tree(np.ones((40, 3)), np.arange(40.0), max_depth=3)
        assert tree.node_count == 1

    @pytest.mark.parametrize("min_leaf", [5, 30])
    def test_min_samples_leaf_respected(self, monkeypatch, regression_data, min_leaf):
        # The builder's one validity mask keeps _MIN_SAMPLES_LEAF rows on
        # each side of every cut; a raised minimum must bind on this data.
        X, y = regression_data
        _, leaves, _ = builder_tree(X, y, max_depth=12)
        assert np.bincount(leaves)[np.unique(leaves)].min() < min_leaf
        monkeypatch.setattr(tree_module, "_MIN_SAMPLES_LEAF", min_leaf)
        _, leaves, _ = builder_tree(X, y, max_depth=12)
        assert np.bincount(leaves)[np.unique(leaves)].min() >= min_leaf


class TestGbmHist:
    def test_gbm_hist_close_to_exact(self, regression_data):
        X, y = regression_data
        exact = ExactGBR(n_estimators=40).fit(X, y)
        hist = GradientBoostingRegressor(n_estimators=40).fit(X, y)
        assert abs(r2(y, exact.predict(X)) - r2(y, hist.predict(X))) < 0.02

    def test_grabit_hist_close_to_exact(self, rng):
        X = rng.normal(size=(150, 5))
        y = np.abs(3.0 + X[:, 0] + 0.5 * rng.normal(size=150))
        censored = rng.random(150) < 0.3
        exact = ExactGrabit().fit(X, y, censored)
        hist = GrabitRegressor().fit(X, y, censored)
        p_e, p_h = exact.predict(X), hist.predict(X)
        assert np.corrcoef(p_e, p_h)[0, 1] > 0.99


class TestWarmStart:
    def test_two_stage_fit_equals_one_big_fit(self, regression_data):
        X, y = regression_data
        one = GradientBoostingRegressor(n_estimators=50).fit(X, y)
        two = GradientBoostingRegressor(n_estimators=25, warm_start=True).fit(X, y)
        two.set_params(n_estimators=50)
        two.fit(X, y)
        assert len(two.estimators_) == 50
        np.testing.assert_allclose(one.predict(X), two.predict(X))

    def test_warm_start_on_grown_data(self, regression_data):
        X, y = regression_data
        m = GradientBoostingRegressor(n_estimators=20, warm_start=True)
        m.fit(X[:200], y[:200])
        m.set_params(n_estimators=35)
        m.fit(X, y)
        assert len(m.estimators_) == 35
        assert r2(y, m.predict(X)) > 0.8

    def test_shrinking_n_estimators_raises(self, regression_data):
        X, y = regression_data
        m = GradientBoostingRegressor(n_estimators=20, warm_start=True).fit(X, y)
        m.set_params(n_estimators=10)
        with pytest.raises(ValueError, match="warm_start"):
            m.fit(X, y)

    def test_warm_start_feature_mismatch_raises(self, regression_data):
        X, y = regression_data
        m = GradientBoostingRegressor(n_estimators=10, warm_start=True).fit(X, y)
        m.set_params(n_estimators=20)
        with pytest.raises(ValueError, match="features"):
            m.fit(X[:, :3], y)

    def test_without_warm_start_refit_restarts(self, regression_data):
        X, y = regression_data
        m = GradientBoostingRegressor(n_estimators=15).fit(X, y)
        m.fit(X, y)
        assert len(m.estimators_) == 15


class TestNurdWarmStart:
    def _replay_f1(self, job, **nurd_kwargs):
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        pred = NurdPredictor(random_state=0, **nurd_kwargs)
        return sim.run(job, pred)

    @pytest.mark.parametrize("family", ["google", "alibaba"])
    def test_hist_warm_metrics_close_to_exact_full_refit(
        self, family, google_trace, alibaba_trace, monkeypatch
    ):
        trace = {"google": google_trace, "alibaba": alibaba_trace}[family]
        for job in trace:
            with monkeypatch.context() as m:
                m.setattr(nurd, "GradientBoostingRegressor", ExactGBR)
                base = self._replay_f1(job, warm_start=False)
            fast = self._replay_f1(job, warm_start=True)
            assert abs(base.f1 - fast.f1) < 0.2, (
                f"{family}/{job.job_id}: F1 {base.f1:.3f} vs {fast.f1:.3f}"
            )

    def test_warm_update_extends_ensemble(self, google_job, monkeypatch):
        monkeypatch.setattr(nurd, "_WARM_REFRESH", 10.0)
        pred = NurdPredictor(random_state=0, warm_start=True)
        X, y = google_job.features, google_job.latencies
        tau = google_job.straggler_threshold()
        pred.begin_job(X[:20], y[:20], X[20:40], tau)
        pred.update(X[:50], y[:50], X[50:80])
        n0 = len(pred.h_.estimators_)
        pred.update(X[:60], y[:60], X[60:90])
        assert len(pred.h_.estimators_) == n0 + nurd._WARM_INCREMENT

    def test_warm_growth_capped_at_4x_base(self, google_job, monkeypatch):
        monkeypatch.setattr(nurd, "_WARM_REFRESH", 1e9)
        monkeypatch.setattr(nurd, "_WARM_INCREMENT", 60)
        pred = NurdPredictor(random_state=0, warm_start=True)
        X, y = google_job.features, google_job.latencies
        tau = google_job.straggler_threshold()
        pred.begin_job(X[:20], y[:20], X[20:40], tau)
        for _ in range(10):
            pred.update(X[:50], y[:50], X[50:80])
        # 60 base + warm extensions never exceed 4x the base capacity.
        assert len(pred.h_.estimators_) <= 4 * 60

    def test_hist_stable_on_large_offset_targets(self, rng):
        # Targets with a huge mean offset: the one-pass sum-of-squares
        # formulas would cancel catastrophically and stop splitting.
        X = rng.normal(size=(400, 4))
        y = 1e8 + 2.0 * X[:, 0] + 0.1 * rng.normal(size=400)
        tree, _, predict = builder_tree(X, y, max_depth=4)
        assert np.sum(tree.feature == tree_module._LEAF) > 4
        assert r2(y, predict(X)) > 0.8

    def test_geometric_refresh_forces_full_refit(self, google_job):
        pred = NurdPredictor(random_state=0, warm_start=True)
        X, y = google_job.features, google_job.latencies
        tau = google_job.straggler_threshold()
        pred.begin_job(X[:10], y[:10], X[10:30], tau)
        pred.update(X[:20], y[:20], X[20:40])
        n0 = len(pred.h_.estimators_)
        # Finished set triples, past _WARM_REFRESH: refresh must refit from
        # scratch, not extend.
        pred.update(X[:60], y[:60], X[60:90])
        assert len(pred.h_.estimators_) == n0

    def test_predict_stragglers_validates_input(self, google_job):
        pred = NurdPredictor(random_state=0)
        X, y = google_job.features, google_job.latencies
        tau = google_job.straggler_threshold()
        pred.begin_job(X[:20], y[:20], X[20:40], tau)
        pred.update(X[:40], y[:40], X[40:70])
        bad = X[40:70].copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            pred.predict_stragglers(bad)

