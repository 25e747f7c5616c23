"""Checkpoint-replay parity against an independent reference loop.

``ReplayStream`` is the only checkpoint loop in ``src/``:
``ReplaySimulator.run``, ``run_incremental``, the serving engine and the
async service all drive it over a shared ``CheckpointPlan``. This module
keeps a second, independent implementation of the same semantics,
``_reference_run``, which regenerates the full noise-perturbed observation
matrix with ``ReplaySimulator.observed_features`` at every checkpoint and
shares no state with the stream. The stream must reproduce it
**bit-for-bit** — same RNG consumption, same arithmetic per task row — on
both synthetic trace families, including duplicate-task, zero-noise and
staggered-start edge cases. The serving engine and async service are checked
against ``ReplaySimulator.run`` too.
"""

import asyncio

import numpy as np
import pytest

from repro.core.nurd import NurdNcPredictor, NurdPredictor
from repro.eval.baselines import build_predictor
from repro.serving import ScoringEngine, ScorerService, ServiceConfig
from repro.sim.replay import ReplayResult, ReplaySimulator
from repro.traces.schema import Job
from repro.utils.validation import check_random_state


def _reference_run(sim, job, predictor, tau_stra=None):
    """The checkpoint loop written out once more, without a plan or stream."""
    n = job.n_tasks
    y = job.latencies
    starts = job.start_times
    completion = job.completion_times
    # Same RNG consumption order as a plan: seed, grid, noise.
    rng = check_random_state(sim.random_state)
    grid = sim.checkpoint_grid(job)
    noise = rng.normal(0.0, 1.0, size=job.features.shape)
    if tau_stra is None:
        tau_stra = job.straggler_threshold(sim.straggler_percentile)
    warmup_time, checkpoints = grid[0], grid[1:]

    finished = completion <= warmup_time
    if not finished.any():
        finished = completion <= completion.min()
    flagged = np.zeros(n, dtype=bool)
    flag_times = np.full(n, np.inf)

    X0 = sim.observed_features(job, float(warmup_time), noise)
    running0 = (starts <= warmup_time) & ~finished
    if running0.any():
        predictor.begin_job(X0[finished], y[finished], X0[running0], tau_stra)
    else:
        predictor.begin_job(X0[finished], y[finished], X0[finished], tau_stra)
    for tau in checkpoints:
        finished = completion <= tau
        running = (starts <= tau) & ~finished & ~flagged
        if not finished.any() or not running.any():
            continue
        X_tau = sim.observed_features(job, float(tau), noise)
        predictor.update(
            job.features[finished], y[finished], X_tau[running],
            tau - starts[running],
        )
        flags = np.asarray(predictor.predict_stragglers(X_tau[running]), dtype=bool)
        idx = np.nonzero(running)[0][flags]
        flagged[idx] = True
        flag_times[idx] = tau

    return ReplayResult(
        job_id=job.job_id,
        tau_stra=float(tau_stra),
        y_true=job.latencies >= tau_stra,
        y_flag=flagged,
        flag_times=flag_times,
        checkpoints=checkpoints,
        latencies=y.copy(),
        start_times=starts.copy(),
    )


def assert_replay_equal(batch, incremental):
    """Field-for-field bitwise equality of two ReplayResults."""
    assert batch.job_id == incremental.job_id
    assert batch.tau_stra == incremental.tau_stra
    np.testing.assert_array_equal(batch.y_true, incremental.y_true)
    np.testing.assert_array_equal(batch.y_flag, incremental.y_flag)
    np.testing.assert_array_equal(batch.flag_times, incremental.flag_times)
    np.testing.assert_array_equal(batch.checkpoints, incremental.checkpoints)
    np.testing.assert_array_equal(batch.latencies, incremental.latencies)
    np.testing.assert_array_equal(batch.start_times, incremental.start_times)


def both_paths(sim, job, seed, **nurd_kwargs):
    batch = _reference_run(sim, job, NurdPredictor(random_state=seed, **nurd_kwargs))
    inc = sim.run_incremental(
        job, NurdPredictor(random_state=seed, **nurd_kwargs)
    )
    return batch, inc


class TestNurdFlagParity:
    """NURD flags bit-identical across both synthetic trace families."""

    @pytest.mark.parametrize("family", ["google", "alibaba"])
    def test_flags_bit_identical(self, family, google_trace, alibaba_trace):
        trace = google_trace if family == "google" else alibaba_trace
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        for i, job in enumerate(trace):
            batch, inc = both_paths(sim, job, seed=i)
            assert_replay_equal(batch, inc)

    def test_flags_bit_identical_nurd_nc(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=6, random_state=3)
        job = google_trace[0]
        batch = sim.run(job, NurdNcPredictor(random_state=0))
        inc = sim.run_incremental(job, NurdNcPredictor(random_state=0))
        assert_replay_equal(batch, inc)

    @pytest.mark.parametrize("method", ["GBTR", "KNN", "IFOREST"])
    def test_baseline_methods_parity(self, method, google_trace):
        """The stream is predictor-agnostic: baselines replay identically."""
        job = google_trace[0]
        sim = ReplaySimulator(n_checkpoints=6, random_state=1)
        batch = sim.run(job, build_predictor(method, contamination=0.1,
                                             random_state=0))
        inc = sim.run_incremental(
            job, build_predictor(method, contamination=0.1, random_state=0)
        )
        assert_replay_equal(batch, inc)

    def test_parity_on_alibaba_job(self, alibaba_trace):
        job = alibaba_trace[1]
        sim = ReplaySimulator(n_checkpoints=6, random_state=5)
        batch, inc = both_paths(sim, job, seed=2)
        assert_replay_equal(batch, inc)


class TestObservedFeatureParity:
    """The plan's observed matrices equal the simulator's recomputation."""

    def _noise_for(self, sim, job):
        # The plan draws its noise as the first normal draw from the
        # simulator seed, full feature shape.
        rng = np.random.default_rng(sim.random_state)
        return rng.normal(0.0, 1.0, size=job.features.shape)

    def test_observed_matrix_bitwise_every_checkpoint(self, google_trace):
        job = google_trace[0]
        sim = ReplaySimulator(n_checkpoints=12, random_state=9)
        noise = self._noise_for(sim, job)
        stream = sim.stream(job, NurdPredictor(random_state=0))
        scored = 0
        for tau in stream.checkpoints:
            out = stream.step(tau)
            if not out.scored:
                continue
            scored += 1
            # Each scored checkpoint is a cache miss of the stream's own plan.
            assert out.refreshed_rows == job.n_tasks
            expected = sim.observed_features(job, float(tau), noise)
            np.testing.assert_array_equal(stream.plan.observed(tau), expected)
        assert scored > 0
        # A second stream on the same plan computes no rows at all.
        again = sim.stream(job, NurdPredictor(random_state=0), plan=stream.plan)
        assert all(again.step(tau).refreshed_rows == 0 for tau in again.checkpoints)


class TestEdgeCaseParity:
    def _job_with(self, features, latencies, starts=None, job_id="edge"):
        names = [f"f{i}" for i in range(features.shape[1])]
        return Job(job_id, features, latencies, names, starts)

    def test_duplicate_tasks(self):
        """Duplicated rows (identical features AND latencies) replay
        identically down the incremental path."""
        rng = np.random.default_rng(0)
        X = rng.random((40, 4)) + 0.1
        y = rng.lognormal(0.0, 0.8, 40) + 0.1
        X = np.vstack([X, X[:10]])
        y = np.concatenate([y, y[:10]])
        job = self._job_with(X, y, job_id="dup")
        sim = ReplaySimulator(n_checkpoints=8, random_state=2)
        batch, inc = both_paths(sim, job, seed=0)
        assert_replay_equal(batch, inc)

    def test_zero_noise(self, google_trace):
        job = google_trace[1]
        sim = ReplaySimulator(n_checkpoints=8, feature_noise=0.0, random_state=0)
        batch, inc = both_paths(sim, job, seed=1)
        assert_replay_equal(batch, inc)
        # With noise disabled the plan serves the exact feature matrix.
        stream = sim.stream(job, NurdPredictor(random_state=1))
        for tau in stream.checkpoints:
            stream.step(tau)
            assert stream.plan.observed(tau) is job.features

    def test_staggered_starts(self):
        rng = np.random.default_rng(4)
        n = 60
        y = rng.lognormal(0.0, 1.0, n) + 0.1
        X = np.column_stack([y * (1 + 0.1 * rng.random(n)), rng.random(n)])
        starts = rng.uniform(0.0, 0.5 * y.max(), n)
        job = self._job_with(X, y, starts, job_id="staggered")
        sim = ReplaySimulator(n_checkpoints=10, random_state=7)
        batch, inc = both_paths(sim, job, seed=3)
        assert_replay_equal(batch, inc)

    def test_all_tasks_finish_at_warmup(self):
        """Degenerate job: everything completes by the warmup instant, so no
        checkpoint ever has running tasks and no flag is issued; the F1
        accessors must stay well-defined (satellite of ISSUE 6)."""
        y = np.full(20, 5.0)
        X = np.column_stack([y, np.ones(20)])
        job = self._job_with(X, y, job_id="all-at-warmup")
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        batch, inc = both_paths(sim, job, seed=0)
        assert_replay_equal(batch, inc)
        assert not batch.y_flag.any()
        assert np.isinf(batch.flag_times).all()
        assert batch.f1 == 0.0
        assert batch.f1_at_time(0.0) == 0.0
        assert batch.f1_at_time(np.inf) == 0.0
        curve = batch.streaming_f1(6)
        assert curve.shape == (6,)
        np.testing.assert_array_equal(curve, np.zeros(6))

    def test_stream_rejects_backward_checkpoints(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        stream = sim.stream(google_trace[0], NurdPredictor(random_state=0))
        stream.step(stream.checkpoints[1])
        with pytest.raises(ValueError, match="strictly increasing"):
            stream.step(stream.checkpoints[0])


class TestServingLayerParity:
    """Engine and async service are the same stream: unbudgeted == batch."""

    def test_engine_unbudgeted_matches_batch(self, alibaba_trace):
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        for i, job in enumerate(alibaba_trace):
            batch = sim.run(job, NurdPredictor(random_state=i))
            engine = ScoringEngine(
                lambda i=i: NurdPredictor(random_state=i), simulator=sim
            )
            assert_replay_equal(batch, engine.run_job(job))

    def test_service_matches_batch(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        seeds = {job.job_id: i for i, job in enumerate(google_trace)}
        batch = [
            sim.run(job, NurdPredictor(random_state=seeds[job.job_id]))
            for job in google_trace
        ]

        class _Factory:
            """Service workers interleave jobs; seed by registration order."""

            def __init__(self):
                self.calls = 0

            def __call__(self):
                # ScorerService builds one predictor per BeginJob, in
                # submission order; replay_trace submits trace order.
                pred = NurdPredictor(random_state=self.calls)
                self.calls += 1
                return pred

        async def run():
            svc = ScorerService(
                _Factory(),
                simulator=sim,
                config=ServiceConfig(n_workers=2, queue_depth=8),
            )
            await svc.start()
            results = await svc.replay_trace(trace=google_trace)
            await svc.stop()
            return results

        results = asyncio.run(run())
        for b, r in zip(batch, results):
            assert_replay_equal(b, r)


class TestPartialUpdate:
    """The budget's partial tier refits ``g_t`` and keeps the cached ``h_t``."""

    def test_partial_update_refreshes_propensity_only(self, google_trace):
        job = google_trace[0]
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        pred = NurdPredictor(random_state=0)
        stream = sim.stream(job, pred)
        taus = list(stream.checkpoints)
        stream.step(taus[0])
        h_before, g_before = pred.h_, pred.g_
        # Drive the next checkpoint through the partial tier directly.
        completion = job.completion_times
        tau = taus[1]
        finished = completion <= tau
        running = (job.start_times <= tau) & ~finished & ~stream.flagged
        pred.partial_update(
            job.features[finished],
            job.latencies[finished],
            stream.plan.observed(taus[1])[running],
        )
        assert pred.h_ is h_before          # regressor untouched (cached)
        assert pred.g_ is not g_before      # propensity refreshed
