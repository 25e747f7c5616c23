"""Tests for NURD's core pieces: calibration, propensity, Algorithm 1."""

import numpy as np
import pytest

from repro.core import (
    NurdNcPredictor,
    NurdPredictor,
    PropensityScorer,
    clip_weight,
    compute_delta,
    compute_rho,
)
from repro.learn import clone
from repro.sim.replay import ReplaySimulator


class TestCalibration:
    def test_rho_formula(self):
        X_fin = np.array([[3.0, 4.0]])  # ||c_fin|| = 5
        X_run = np.array([[3.0, 5.0]])  # separation = 1
        assert compute_rho(X_fin, X_run) == pytest.approx(5.0)

    def test_rho_identical_centroids_is_large(self):
        X = np.ones((10, 2))
        assert compute_rho(X, X) > 1e6

    def test_rho_dim_mismatch(self):
        with pytest.raises(ValueError):
            compute_rho(np.ones((2, 2)), np.ones((2, 3)))

    def test_delta_bounds(self):
        # δ ∈ (−α, 1−α) over ρ ∈ [0, ∞) with no cap.
        for rho in [0.0, 0.5, 1.0, 10.0, 1e9]:
            d = compute_delta(rho, alpha=0.5, rho_max=np.inf)
            assert -0.5 < d <= 0.5

    def test_delta_monotone_decreasing_in_rho(self):
        deltas = [compute_delta(r, rho_max=np.inf) for r in [0.1, 0.5, 1.0, 2.0, 5.0]]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_delta_sign_switch_at_rho_one(self):
        # α = 0.5 puts the sign change exactly at ρ = 1 (paper's regimes).
        assert compute_delta(0.5, alpha=0.5, rho_max=np.inf) > 0
        assert compute_delta(2.0, alpha=0.5, rho_max=np.inf) < 0

    def test_delta_rho_cap(self):
        assert compute_delta(100.0, rho_max=2.0) == compute_delta(2.0, rho_max=2.0)

    def test_delta_invalid(self):
        with pytest.raises(ValueError):
            compute_delta(-1.0, rho_max=1.2)
        with pytest.raises(ValueError):
            compute_delta(1.0, alpha=0.0, rho_max=1.2)

    @pytest.mark.parametrize("rho_max", [np.nan, 0.0, -1.0])
    def test_delta_rejects_rho_max_not_positive(self, rho_max):
        # A NaN cap used to switch the cap off silently: min(5.0, nan) is
        # 5.0, so compute_delta(5.0, 0.5, rho_max=nan) returned the
        # uncapped (rho_max=inf) value.
        with pytest.raises(ValueError, match="^rho_max must be positive"):
            compute_delta(5.0, 0.5, rho_max=rho_max)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0, 1.5, np.nan])
    def test_delta_alpha_outside_unit_interval(self, alpha):
        # At alpha >= 1, delta <= 0 at every rho (alpha=1.5 gave -0.785),
        # so calibration could never suppress a prediction.
        with pytest.raises(ValueError, match="alpha"):
            compute_delta(0.5, alpha=alpha, rho_max=1.2)

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5, 0.999])
    def test_delta_alpha_inside_unit_interval(self, alpha):
        # Every rho reaches both signs' side: delta in (-alpha, 1 - alpha).
        assert compute_delta(0.0, alpha=alpha, rho_max=np.inf) == 1.0 - alpha

    def test_clip_weight_bounds(self):
        z = np.array([0.0, 0.3, 0.9, 1.0])
        w = clip_weight(z, delta=0.2, eps=0.05)
        assert (w >= 0.05).all() and (w <= 1.0).all()

    def test_clip_weight_eps_floor(self):
        w = clip_weight(np.array([0.0]), delta=-0.4, eps=0.05)
        assert w[0] == 0.05

    @pytest.mark.parametrize("eps", [0.0, np.nan, np.inf, 2.0])
    def test_clip_weight_invalid_eps(self, eps):
        with pytest.raises(ValueError, match="^eps must"):
            clip_weight(np.array([0.5]), 0.0, eps=eps)


class TestPropensityScorer:
    def _split_data(self, sep=3.0, n=100):
        rng = np.random.default_rng(0)
        X_fin = rng.normal(0, 1, size=(n, 3))
        X_run = rng.normal(sep, 1, size=(n // 2, 3))
        return X_fin, X_run

    def test_scores_in_unit_interval(self):
        X_fin, X_run = self._split_data()
        ps = PropensityScorer().fit(X_fin, X_run)
        z = ps.score(np.vstack([X_fin, X_run]))
        assert (z >= 0).all() and (z <= 1).all()

    def test_separable_classes(self):
        X_fin, X_run = self._split_data(sep=5.0)
        ps = PropensityScorer().fit(X_fin, X_run)
        assert ps.score(X_fin).mean() > 0.9
        assert ps.score(X_run).mean() < 0.2

    def test_balancing_counters_imbalance(self):
        rng = np.random.default_rng(1)
        # 10 finished vs 300 running, indistinguishable features.
        X_fin = rng.normal(size=(10, 2))
        X_run = rng.normal(size=(300, 2))
        z = PropensityScorer().fit(X_fin, X_run).score(X_run)
        # Balanced, then boosted 2:1 toward finished: indistinguishable tasks
        # score near 2/3, not the 10/310 prior.
        assert 0.5 < np.median(z) < 0.8

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            PropensityScorer().fit(np.ones((5, 2)), np.ones((5, 3)))


class TestNurdPredictor:
    def test_begin_job_sets_calibration(self, google_job):
        y = google_job.latencies
        fin = y <= np.quantile(y, 0.2)
        pred = NurdPredictor(random_state=0)
        pred.begin_job(
            google_job.features[fin],
            y[fin],
            google_job.features[~fin],
            google_job.straggler_threshold(),
        )
        assert pred.rho_ >= 0
        assert -0.5 < pred.delta_ <= 0.5

    def test_weights_respect_eps_and_one(self, google_job):
        y = google_job.latencies
        fin = y <= np.quantile(y, 0.3)
        pred = NurdPredictor(eps=0.07, random_state=0)
        pred.begin_job(
            google_job.features[fin],
            y[fin],
            google_job.features[~fin],
            google_job.straggler_threshold(),
        )
        pred.update(google_job.features[fin], y[fin], google_job.features[~fin])
        w = pred.predict_weights(google_job.features[~fin])
        assert (w >= 0.07 - 1e-12).all() and (w <= 1.0 + 1e-12).all()

    def test_adjusted_prediction_dilates(self, google_job):
        y = google_job.latencies
        fin = y <= np.quantile(y, 0.3)
        pred = NurdPredictor(random_state=0)
        pred.begin_job(
            google_job.features[fin],
            y[fin],
            google_job.features[~fin],
            google_job.straggler_threshold(),
        )
        pred.update(google_job.features[fin], y[fin], google_job.features[~fin])
        raw = pred.h_.predict(google_job.features[~fin])
        adj = pred.predict_latency(google_job.features[~fin])
        assert (adj >= raw - 1e-9).all()  # weights ≤ 1 can only inflate

    def test_nc_variant_ignores_calibration(self, google_job):
        y = google_job.latencies
        fin = y <= np.quantile(y, 0.3)
        pred = NurdNcPredictor(random_state=0)
        pred.begin_job(
            google_job.features[fin],
            y[fin],
            google_job.features[~fin],
            google_job.straggler_threshold(),
        )
        assert pred.delta_ == 0.0
        assert pred.name == "NURD-NC"
        # A plain subclass: its parameters, and so its clones, are NURD's.
        assert "__init__" not in vars(NurdNcPredictor)
        assert clone(NurdNcPredictor(alpha=0.3)).name == "NURD-NC"

    @pytest.mark.parametrize("predictor", [NurdPredictor, NurdNcPredictor])
    @pytest.mark.parametrize(
        "param, value",
        [("alpha", 0.0), ("eps", 0.0), ("eps", np.nan), ("eps", np.inf), ("eps", 2.0)],
    )
    def test_invalid_alpha_eps(self, google_job, predictor, param, value):
        # eps=nan or inf used to replay with zero flags; eps=2.0 made the
        # weight max(eps, .) exceed 1.
        y = google_job.latencies
        fin = y <= np.quantile(y, 0.3)
        args = (google_job.features[fin], y[fin], google_job.features[~fin], 1.0)
        with pytest.raises(ValueError, match=f"^{param} must"):
            predictor(**{param: value}).begin_job(*args)

    @pytest.mark.parametrize("predictor", [NurdPredictor, NurdNcPredictor])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, -0.5, np.nan])
    def test_begin_job_rejects_alpha_outside_unit_interval(
        self, google_job, predictor, alpha
    ):
        y = google_job.latencies
        fin = y <= np.quantile(y, 0.3)
        args = (google_job.features[fin], y[fin], google_job.features[~fin], 1.0)
        with pytest.raises(ValueError, match="alpha"):
            predictor(alpha=alpha).begin_job(*args)

    @pytest.mark.parametrize("predictor", [NurdPredictor, NurdNcPredictor])
    @pytest.mark.parametrize("rho_max", [np.nan, 0.0, -1.0])
    def test_begin_job_rejects_rho_max_not_positive(
        self, google_job, predictor, rho_max
    ):
        # NurdPredictor(rho_max=nan) used to fit with its rho cap off.
        y = google_job.latencies
        fin = y <= np.quantile(y, 0.3)
        args = (google_job.features[fin], y[fin], google_job.features[~fin], 1.0)
        with pytest.raises(ValueError, match="rho_max"):
            predictor(rho_max=rho_max).begin_job(*args)

    def test_empty_running_set(self, google_job):
        y = google_job.latencies
        fin = np.ones(google_job.n_tasks, dtype=bool)
        fin[:2] = False
        pred = NurdPredictor(random_state=0)
        pred.begin_job(google_job.features[fin], y[fin], google_job.features[~fin], 1e9)
        pred.update(google_job.features[fin], y[fin], google_job.features[~fin])
        flags = pred.predict_stragglers(np.zeros((0, google_job.n_features)))
        assert flags.shape == (0,)

    def test_finds_stragglers_in_replay(self, google_job):
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        res = sim.run(google_job, NurdPredictor(random_state=0))
        assert res.f1 > 0.2
        assert res.tpr > 0.4

