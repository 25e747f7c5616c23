"""Histogram-binned training, warm-start refits, and the parallel harness.

Covers the performance machinery added around the GBM stack:

- the feature binner and the histogram split search agree with the exact
  splitter below — identically on low-cardinality data, within tolerance on
  the benchmark trace families;
- ``warm_start`` continuation is exactly equivalent to one big fit;
- NURD's warm-started checkpoint refits keep its Table-3 metrics close to
  an exact-splitter full-refit baseline on both trace families;
- ``evaluate_method(..., n_workers>1)`` is bit-identical to the serial path;
- ``MethodResult`` caches its per-attribute means without going stale.

The exact splitter lives here as a reference: per node, each feature is
sorted once and prefix sums score every cut in O(n) after the O(n log n)
sort. ``EXACT_REFERENCE`` maps the shipping boosted models to exact-splitter
stand-ins; ``benchmarks/perf/bench_training.py`` swaps them in for its
"before" column.
"""

import numpy as np
import pytest

from repro.censored import GrabitRegressor
from repro.core.nurd import NurdPredictor
from repro.eval import EvaluationConfig, evaluate_method
from repro.learn import DecisionTreeRegressor
from repro.learn.gbm import GradientBoostingRegressor, _newton_step
from repro.learn.tree import (
    _Binner,
    _PackedTrees,
    _TreeBuffers,
    _check_builder_params,
)
from repro.sim.replay import ReplaySimulator
from repro.utils.validation import check_X_y
from yardsticks import r2

# ---------------------------------------------------------------------------
# Exact-splitter reference
# ---------------------------------------------------------------------------


def _best_split_mse(Xf, y, min_samples_leaf):
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
    # Disallow splitting between equal values and undersized leaves.
    valid = (xs[1:] != xs[:-1]) & (left_n >= min_samples_leaf) & (
        right_n >= min_samples_leaf
    )
    if not np.any(valid):
        return None
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]) or gain[best] <= 1e-12:
        return None
    thr = 0.5 * (xs[best] + xs[best + 1])
    return float(gain[best]), float(thr)


class ExactTreeRegressor(DecisionTreeRegressor):
    """``DecisionTreeRegressor`` grown by the exact splitter on raw features."""

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        return self._fit_exact(X, y)

    def _grows(self, depth, m, imp, max_depth):
        """Whether a node may still be split; otherwise it is a leaf."""
        return not (depth >= max_depth or m < self.min_samples_split or imp <= 1e-12)

    def _fit_exact(self, X, y):
        max_depth = _check_builder_params(
            self.max_depth, self.min_samples_split, self.min_samples_leaf
        )
        buffers = _TreeBuffers()
        train_leaves = np.zeros(X.shape[0], dtype=np.int64)
        root_value, root_imp = self._leaf_stats(y)
        root_idx = buffers.add_node(root_value, y.shape[0], root_imp)
        stack = [(root_idx, np.arange(X.shape[0]), 0)]
        while stack:
            node_id, idx, depth = stack.pop()
            ysub = y[idx]
            imp = buffers.impurity[node_id]
            if not self._grows(depth, idx.shape[0], imp, max_depth):
                train_leaves[idx] = node_id
                continue
            best_gain, best_feat, best_thr = -np.inf, -1, np.nan
            for f in range(X.shape[1]):
                res = _best_split_mse(X[idx, f], ysub, self.min_samples_leaf)
                if res is not None and res[0] > best_gain:
                    best_gain, best_thr = res
                    best_feat = f
            if best_feat < 0:
                train_leaves[idx] = node_id
                continue
            go_left = X[idx, best_feat] <= best_thr
            parts = (idx[go_left], idx[~go_left])
            if min(part.shape[0] for part in parts) < self.min_samples_leaf:
                train_leaves[idx] = node_id
                continue
            ids = []
            for part in parts:
                value, part_imp = self._leaf_stats(y[part])
                ids.append(buffers.add_node(value, part.shape[0], part_imp))
                stack.append((ids[-1], part, depth + 1))
            buffers.feature[node_id] = best_feat
            buffers.threshold[node_id] = best_thr
            buffers.left[node_id], buffers.right[node_id] = ids
        self.tree_ = buffers.finalize()
        self.n_features_in_ = X.shape[1]
        self._train_leaves_ = train_leaves
        return self


class _ExactBoosting:
    """The shipping stage loop with exact trees grown on raw features. It
    always fits from scratch, so it refuses a warm-started extension."""

    def _boost(self, X, y, loss, warm=False, min_samples_split=2):
        if warm:
            raise NotImplementedError("the exact reference has no warm start")
        self.init_raw_ = loss.init_raw(y)
        raw = np.full(X.shape[0], self.init_raw_, dtype=np.float64)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            residual, hessian = loss.gradients(y, raw)
            tree = ExactTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
            )._fit_exact(X, residual)
            raw += self.learning_rate * _newton_step(tree, residual, hessian)
            self.estimators_.append(tree)
        self._packed = _PackedTrees([tree.tree_ for tree in self.estimators_])
        self.n_features_in_ = X.shape[1]
        return self


class ExactGBR(_ExactBoosting, GradientBoostingRegressor):
    pass


class ExactGrabit(_ExactBoosting, GrabitRegressor):
    pass


#: Exact-splitter stand-ins for the shipping boosted models, by class name.
EXACT_REFERENCE = {
    "GradientBoostingRegressor": ExactGBR,
    "GrabitRegressor": ExactGrabit,
}


class TestBinner:
    def test_codes_roundtrip_split_semantics(self, rng):
        X = rng.normal(size=(300, 4))
        binner = _Binner(max_bins=64).fit(X)
        codes = binner.transform(X)
        # "bin <= b" must equal "x <= edges[b]" for every feature and cut.
        for f in range(4):
            for b in range(binner.n_bins_[f] - 1):
                thr = binner.edges_[f][b]
                np.testing.assert_array_equal(
                    codes[:, f] <= b, X[:, f] <= thr
                )

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
        X = rng.integers(0, 10, size=(250, 4)).astype(float)
        y = 2.0 * X[:, 0] - X[:, 2] + 0.05 * rng.normal(size=250)
        exact = ExactTreeRegressor(max_depth=4).fit(X, y)
        hist = DecisionTreeRegressor(max_depth=4).fit(X, y)
        np.testing.assert_allclose(exact.predict(X), hist.predict(X))

    def test_regressor_quality_close(self, regression_data):
        X, y = regression_data
        exact = ExactTreeRegressor(max_depth=6).fit(X, y)
        hist = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert abs(r2(y, exact.predict(X)) - r2(y, hist.predict(X))) < 0.02

    def test_constant_features_single_leaf(self):
        m = DecisionTreeRegressor().fit(
            np.ones((40, 3)), np.arange(40.0)
        )
        assert m.n_leaves_ == 1

    def test_min_samples_leaf_respected(self, regression_data):
        X, y = regression_data
        m = DecisionTreeRegressor(min_samples_leaf=30).fit(X, y)
        _, counts = np.unique(m.apply(X), return_counts=True)
        assert counts.min() >= 30


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
        exact = ExactGrabit(n_estimators=30).fit(X, y, censored)
        hist = GrabitRegressor(n_estimators=30).fit(X, y, censored)
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
        self, family, google_trace, alibaba_trace
    ):
        trace = {"google": google_trace, "alibaba": alibaba_trace}[family]
        exact_h = ExactGBR(n_estimators=60, max_depth=3, learning_rate=0.1)
        for job in trace:
            base = self._replay_f1(job, regressor=exact_h, warm_start=False)
            fast = self._replay_f1(job, warm_start=True)
            assert abs(base.f1 - fast.f1) < 0.2, (
                f"{family}/{job.job_id}: F1 {base.f1:.3f} vs {fast.f1:.3f}"
            )

    def test_warm_update_extends_ensemble(self, google_job):
        pred = NurdPredictor(random_state=0, warm_start=True, warm_refresh=10.0)
        X, y = google_job.features, google_job.latencies
        tau = google_job.straggler_threshold()
        pred.begin_job(X[:20], y[:20], X[20:40], tau)
        pred.update(X[:50], y[:50], X[50:80])
        n0 = len(pred.h_.estimators_)
        pred.update(X[:60], y[:60], X[60:90])
        assert len(pred.h_.estimators_) == n0 + pred.warm_increment

    def test_warm_growth_capped_at_4x_base(self, google_job):
        pred = NurdPredictor(
            random_state=0, warm_start=True, warm_refresh=1e9,
            warm_increment=60,
        )
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
        m = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert m.n_leaves_ > 4
        assert r2(y, m.predict(X)) > 0.8

    def test_geometric_refresh_forces_full_refit(self, google_job):
        pred = NurdPredictor(random_state=0, warm_start=True, warm_refresh=1.5)
        X, y = google_job.features, google_job.latencies
        tau = google_job.straggler_threshold()
        pred.begin_job(X[:10], y[:10], X[10:30], tau)
        pred.update(X[:20], y[:20], X[20:40])
        n0 = len(pred.h_.estimators_)
        # Finished set doubles: refresh must refit from scratch, not extend.
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


class TestParallelHarness:
    def test_parallel_matches_serial(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=4, random_state=0)
        serial = evaluate_method(google_trace, "GBTR", cfg)
        parallel = evaluate_method(google_trace, "GBTR", cfg, n_workers=2)
        assert len(serial.replays) == len(parallel.replays)
        for rs, rp in zip(serial.replays, parallel.replays):
            assert rs.job_id == rp.job_id
            np.testing.assert_array_equal(rs.y_flag, rp.y_flag)
            np.testing.assert_array_equal(rs.flag_times, rp.flag_times)

    def test_mean_cache_returns_same_value(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=3, random_state=0)
        res = evaluate_method(google_trace, "GBTR", cfg)
        first = res.f1
        assert "f1" in res._mean_cache
        assert res.f1 == first

    def test_mean_cache_invalidates_on_replacement(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=3, random_state=0)
        res = evaluate_method(google_trace, "NURD", cfg)
        before = res.tpr
        perfect = res.replays[0]
        res.replays[0] = type(perfect)(
            job_id="swapped",
            tau_stra=perfect.tau_stra,
            y_true=np.array([True]),
            y_flag=np.array([True]),
            flag_times=np.array([1.0]),
            checkpoints=perfect.checkpoints,
            latencies=np.array([5.0]),
        )
        # Same length, different replay object: the cache must notice.
        expected = float(
            np.mean([getattr(r, "tpr") for r in res.replays])
        )
        assert res.tpr == pytest.approx(expected)
        assert res.replays[0].tpr == 1.0 or before == expected

    def test_mean_cache_invalidates_on_append(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=3, random_state=0)
        res = evaluate_method(google_trace, "NURD", cfg)
        tpr_before = res.tpr
        # Appending a degenerate all-correct replay must change the mean.
        perfect = res.replays[0]
        res.replays.append(
            type(perfect)(
                job_id="synthetic",
                tau_stra=perfect.tau_stra,
                y_true=np.array([True, False]),
                y_flag=np.array([True, False]),
                flag_times=np.array([1.0, np.inf]),
                checkpoints=perfect.checkpoints,
                latencies=np.array([5.0, 1.0]),
            )
        )
        assert res.tpr != pytest.approx(tpr_before) or res.tpr == 1.0
        assert res.tpr == res._mean_cache["tpr"][1]
