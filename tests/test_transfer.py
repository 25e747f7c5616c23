"""TransferNurd (core/transfer.py): source-prior blending, validation, and
a closed-loop scenario where a transferred predictor drives mitigation."""

import numpy as np
import pytest

from repro.core.nurd import NurdPredictor
from repro.core.transfer import TransferNurd
from repro.sim.mitigation import (
    ClosedLoopSimulator,
    MitigationConfig,
    random_flagger_result,
)
from repro.sim.replay import ReplaySimulator
from repro.traces.google import GoogleTraceGenerator


@pytest.fixture(scope="module")
def trace():
    return GoogleTraceGenerator(
        n_jobs=3, task_range=(80, 110), random_state=7
    ).generate()


def _checkpoint_data(job, fraction=0.3):
    """Finished/running split at an early checkpoint of ``job``."""
    order = np.argsort(job.latencies)
    n_fin = max(2, int(fraction * job.n_tasks))
    fin, run = order[:n_fin], order[n_fin:]
    return job.features[fin], job.latencies[fin], job.features[run]


class TestFitSource:
    def test_returns_self_and_sets_scale(self, trace):
        src = trace[0]
        model = TransferNurd(random_state=0)
        assert model.fit_source(src.features, src.latencies) is model
        assert model._source_scale_ == pytest.approx(float(np.median(src.latencies)))
        assert hasattr(model, "source_model_")

    def test_negative_prior_strength_rejected(self, trace):
        src = trace[0]
        model = TransferNurd(prior_strength=-1.0, random_state=0)
        with pytest.raises(ValueError, match="prior_strength"):
            model.fit_source(src.features, src.latencies)

    def test_nonpositive_source_latencies_rejected(self, trace):
        src = trace[0]
        model = TransferNurd(random_state=0)
        with pytest.raises(ValueError, match="positive"):
            model.fit_source(src.features, np.zeros_like(src.latencies))

    def test_name(self):
        assert TransferNurd().name == "TransferNURD"


class TestBlending:
    def test_without_source_behaves_like_nurd(self, trace):
        job = trace[1]
        X_fin, y_fin, X_run = _checkpoint_data(job)
        tau = job.straggler_threshold()
        plain = NurdPredictor(random_state=0)
        transfer = TransferNurd(random_state=0)  # fit_source never called
        for model in (plain, transfer):
            model.begin_job(X_fin, y_fin, X_run, tau)
            model.update(X_fin, y_fin, X_run)
        np.testing.assert_allclose(
            transfer.predict_latency(X_run), plain.predict_latency(X_run)
        )

    def test_zero_prior_ignores_source(self, trace):
        src, job = trace[0], trace[1]
        X_fin, y_fin, X_run = _checkpoint_data(job)
        tau = job.straggler_threshold()
        plain = NurdPredictor(random_state=0)
        transfer = TransferNurd(prior_strength=0.0, random_state=0)
        transfer.fit_source(src.features, src.latencies)
        for model in (plain, transfer):
            model.begin_job(X_fin, y_fin, X_run, tau)
            model.update(X_fin, y_fin, X_run)
        np.testing.assert_allclose(
            transfer.predict_latency(X_run), plain.predict_latency(X_run)
        )

    def test_huge_prior_follows_rescaled_source(self, trace):
        src, job = trace[0], trace[1]
        X_fin, y_fin, X_run = _checkpoint_data(job)
        tau = job.straggler_threshold()
        transfer = TransferNurd(prior_strength=1e12, random_state=0)
        transfer.fit_source(src.features, src.latencies)
        transfer.begin_job(X_fin, y_fin, X_run, tau)
        transfer.update(X_fin, y_fin, X_run)
        expected = transfer.source_model_.predict(X_run) * float(np.median(y_fin))
        np.testing.assert_allclose(transfer.predict_latency(X_run), expected, rtol=1e-6)

    def test_blend_weight_decays_with_finished_tasks(self, trace):
        src, job = trace[0], trace[1]
        tau = job.straggler_threshold()
        transfer = TransferNurd(prior_strength=50.0, random_state=0)
        transfer.fit_source(src.features, src.latencies)
        X_fin, y_fin, X_run = _checkpoint_data(job, fraction=0.1)
        transfer.begin_job(X_fin, y_fin, X_run, tau)
        transfer.update(X_fin, y_fin, X_run)
        w_early = transfer.prior_strength / (
            transfer.prior_strength + transfer._n_finished_
        )
        X_fin, y_fin, X_run = _checkpoint_data(job, fraction=0.8)
        transfer.update(X_fin, y_fin, X_run)
        w_late = transfer.prior_strength / (
            transfer.prior_strength + transfer._n_finished_
        )
        assert w_late < w_early


class TestTransferReplayAndClosedLoop:
    def test_replay_produces_valid_result(self, trace):
        src, job = trace[0], trace[1]
        sim = ReplaySimulator(n_checkpoints=10, random_state=0)
        predictor = TransferNurd(random_state=0)
        predictor.fit_source(src.features, src.latencies)
        result = sim.run(job, predictor)
        assert result.y_flag.shape == (job.n_tasks,)
        assert np.all(np.isfinite(result.flag_times) == result.y_flag)
        assert 0.0 <= result.f1 <= 1.0

    def test_transferred_predictor_drives_mitigation(self, trace):
        """Closed-loop scenario: a predictor warm-started on job 0 replays
        job 1 and its flags trigger speculative re-execution that beats the
        prediction-free random-flagger control."""
        src, job = trace[0], trace[1]
        sim = ReplaySimulator(n_checkpoints=10, random_state=0)
        predictor = TransferNurd(random_state=0)
        predictor.fit_source(src.features, src.latencies)
        replay = sim.run(job, predictor)

        cfg = MitigationConfig(policy="speculative", spares=16, random_state=0)
        loop = ClosedLoopSimulator(cfg)
        transferred = loop.run(replay, job_index=0)
        control = loop.run(
            random_flagger_result(replay, random_state=0, job_index=0),
            job_index=0,
        )
        assert transferred.n_actions > 0
        assert transferred.jct_reduction_pct > control.jct_reduction_pct
        # Speculative copies never hurt their own task.
        assert np.all(
            transferred.mitigated_completions <= transferred.baseline_completions
        )
