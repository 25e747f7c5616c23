"""Tests for the long-running scorer service (``repro.serving``).

The budget tiers are exercised with an injected fake clock so degradation
decisions are deterministic — the wall clock never decides a test outcome.
"""

import asyncio

import numpy as np
import pytest

from fault_injection import FaultPlan, ProcessFaults, ServiceChaos
from repro.core.nurd import NurdPredictor
from repro.faults import RetryPolicy
from repro.serving import (
    BeginJob,
    FinishJob,
    LatencyStats,
    ScoreCheckpoint,
    ScorerService,
    ScoringEngine,
    ServiceConfig,
)
from repro.sim.replay import ReplaySimulator
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.google import GoogleTraceGenerator
from repro.traces.schema import Job


class FakeClock:
    """A clock that only moves when the fake predictor does work.

    The stream measures durations by bracketing operations with two clock
    reads; the predictor advances ``now`` by its configured cost inside the
    bracket, so measured durations are exact and deterministic.
    """

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class CountingPredictor:
    """Minimal predictor with configurable, clock-visible operation costs."""

    name = "counting"

    def __init__(
        self,
        clock=None,
        update_cost=0.0,
        partial_cost=0.0,
        score_cost=0.0,
        flag_every=5,
    ):
        self.clock = clock
        self.update_cost = update_cost
        self.partial_cost = partial_cost
        self.score_cost = score_cost
        self.flag_every = flag_every
        self.begin_calls = 0
        self.update_calls = 0
        self.partial_calls = 0
        self.predict_calls = 0

    def _spend(self, cost):
        if self.clock is not None:
            self.clock.now += cost

    def begin_job(self, X_fin, y_fin, X_run, tau_stra):
        self.begin_calls += 1
        return self

    def update(self, X_fin, y_fin, X_run, elapsed_run=None):
        self.update_calls += 1
        self._spend(self.update_cost)
        return self

    def partial_update(self, X_fin, y_fin, X_run, elapsed_run=None):
        self.partial_calls += 1
        self._spend(self.partial_cost)
        return self

    def predict_stragglers(self, X_run):
        self.predict_calls += 1
        self._spend(self.score_cost)
        n = X_run.shape[0]
        flags = np.zeros(n, dtype=bool)
        flags[:: self.flag_every] = n > self.flag_every
        return flags


class DrawingPredictor(CountingPredictor):
    """Flags tasks at random from a generator it keeps: a seeded model
    whose state a second run on the same object would not start afresh."""

    def __init__(self, seed):
        super().__init__()
        self.rng = np.random.default_rng(seed)

    def predict_stragglers(self, X_run):
        return self.rng.random(X_run.shape[0]) < 0.1


def _job(n=50, seed=0, job_id="j"):
    rng = np.random.default_rng(seed)
    y = rng.lognormal(0.0, 1.0, n) + 0.1
    X = np.column_stack([y * (1 + 0.05 * rng.random(n)), rng.random(n)])
    return Job(job_id, X, y, ["lat_proxy", "aux"], None)


def _engine_run(engine, job, predictor):
    """Begin ``job`` on ``engine``, score every grid checkpoint, finish."""
    job_id = engine.begin_job(job, predictor)
    for tau in engine.checkpoint_grid(job_id):
        engine.score_checkpoint(job_id, tau)
    return engine.finish_job(job_id)


class TestBudgetTiers:
    """step(budget=...) with a fake clock: tier selection is pure arithmetic."""

    def _stream(self, **costs):
        clock = FakeClock()
        pred = CountingPredictor(clock=clock, **costs)
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        return sim.stream(_job(), pred, clock=clock), pred

    def test_first_update_always_full(self):
        # Update cost 10s vs budget 1s: the warmup refit still runs.
        stream, _ = self._stream(update_cost=10.0, score_cost=0.1)
        out = stream.step(stream.checkpoints[0], budget=1.0)
        assert out.scored and out.updated and out.update_mode == "full"
        assert out.update_seconds == 10.0
        assert out.score_seconds == pytest.approx(0.1)

    def test_generous_budget_never_degrades(self):
        stream, _ = self._stream(update_cost=1.0, score_cost=0.1)
        for tau in stream.checkpoints:
            out = stream.step(tau, budget=100.0)
            if out.scored:
                assert out.update_mode == "full"
        assert stream.degraded_checkpoints == 0

    def test_tight_budget_degrades_to_partial_then_refits(self):
        # Full refit 9s, partial 2s, score 1s; budget 4s/checkpoint. Credit
        # banks 4s per scored checkpoint: full at step 0, partial while
        # saving up, then a full refit once credit covers 9+1s.
        stream, pred = self._stream(update_cost=9.0, partial_cost=2.0, score_cost=1.0)
        modes = [stream.step(tau, budget=4.0).update_mode for tau in stream.checkpoints]
        scored = [m for m in modes if m != "none"]
        assert scored[0] == "full"
        assert "partial" in scored
        assert "full" in scored[1:]  # credit eventually pays for refit
        assert stream.degraded_checkpoints > 0
        assert pred.update_calls == modes.count("full")
        assert pred.partial_calls == modes.count("partial")

    def test_zero_budget_degrades_everything_after_first(self):
        stream, pred = self._stream(update_cost=1.0, partial_cost=1.0, score_cost=0.1)
        scored = 0
        for tau in stream.checkpoints:
            out = stream.step(tau, budget=0.0)
            scored += out.scored
        assert pred.update_calls == 1  # the mandatory first refit only
        # The first degraded checkpoint probes the (unknown-cost) partial
        # tier; once its cost is known it no longer fits a zero budget.
        assert pred.partial_calls == 1
        assert stream.degraded_checkpoints == scored - 1
        # Even fully degraded, every scored checkpoint still got predictions.
        assert pred.predict_calls == scored

    def test_cached_tier_when_no_partial_update(self):
        class NoPartial(CountingPredictor):
            partial_update = None

        clock = FakeClock()
        pred = NoPartial(clock=clock, update_cost=9.0, score_cost=1.0)
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        stream = sim.stream(_job(), pred, clock=clock)
        for tau in stream.checkpoints:
            out = stream.step(tau, budget=0.0)
            if out.scored and not out.updated:
                assert out.update_mode == "cached"
        assert pred.partial_calls == 0
        assert stream.degraded_checkpoints > 0

    def test_no_budget_never_degrades(self):
        stream, pred = self._stream(update_cost=9.0, score_cost=1.0)
        scored = sum(stream.step(tau).scored for tau in stream.checkpoints)
        assert pred.update_calls == scored
        assert stream.degraded_checkpoints == 0


class ClockedNurd(NurdPredictor):
    """NURD whose full refit, partial refit and scoring cost 9, 2 and 1 on
    a :class:`FakeClock`."""

    def __init__(self, clock, random_state):
        super().__init__(random_state=random_state)
        self.clock = clock

    def update(self, *args):
        self.clock.now += 9.0
        return super().update(*args)

    def partial_update(self, *args):
        self.clock.now += 2.0
        return super().partial_update(*args)

    def predict_stragglers(self, X_run):
        self.clock.now += 1.0
        return super().predict_stragglers(X_run)


class TestBudgetedNurd:
    """Real NURD under a fake-clock budget: fewer refits, bounded F1 loss."""

    def test_budget_trades_refits_for_bounded_accuracy_loss(self):
        sim = ReplaySimulator(n_checkpoints=10, random_state=0)
        batch_clock, budget_clock = FakeClock(), FakeClock()
        batch, budgeted = [], []
        modes = {"full": 0, "partial": 0, "cached": 0}
        for gen in (GoogleTraceGenerator, AlibabaTraceGenerator):
            trace = gen(n_jobs=2, task_range=(60, 90), random_state=42).generate()
            for i, job in enumerate(trace):
                batch.append(sim.run(job, ClockedNurd(batch_clock, i)))
                engine = ScoringEngine(simulator=sim, budget=3.5, clock=budget_clock)
                budgeted.append(_engine_run(engine, job, ClockedNurd(budget_clock, i)))
                for mode, count in engine.update_mode_counts.items():
                    modes[mode] += count
        agree = np.mean(
            np.concatenate([a.y_flag == b.y_flag for a, b in zip(batch, budgeted)])
        )
        assert agree >= 0.74
        f1 = [np.mean([r.f1 for r in rs]) for rs in (batch, budgeted)]
        assert f1[1] >= 0.8 * f1[0]
        # Degraded checkpoints still refresh g_t, and banked credit pays for
        # more full refits than each job's mandatory first one, but fewer
        # than one per checkpoint.
        assert modes["partial"] > 0
        assert len(budgeted) < modes["full"] < sum(modes.values())
        assert budget_clock.now < batch_clock.now


class TestScoringEngine:
    def test_duplicate_begin_rejected(self):
        engine = ScoringEngine()
        engine.begin_job(_job(), CountingPredictor())
        with pytest.raises(ValueError, match="already"):
            engine.begin_job(_job(), CountingPredictor())

    def test_unknown_job_keyerror(self):
        engine = ScoringEngine()
        with pytest.raises(KeyError, match="begin_job"):
            engine.score_checkpoint("nope", 1.0)
        with pytest.raises(KeyError, match="begin_job"):
            engine.finish_job("nope")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            ScoringEngine(budget=-1.0)

    def test_finish_closes_stream(self):
        engine = ScoringEngine()
        job = _job()
        engine.begin_job(job, CountingPredictor())
        assert engine.active_jobs == [job.job_id]
        engine.finish_job(job.job_id)
        assert engine.active_jobs == []
        with pytest.raises(KeyError):
            engine.finish_job(job.job_id)

    def test_stats_dict_accounts_modes(self):
        clock = FakeClock()
        engine = ScoringEngine(budget=0.0, clock=clock)
        predictor = CountingPredictor(
            clock=clock, update_cost=5.0, partial_cost=2.0, score_cost=1.0
        )
        _engine_run(engine, _job(), predictor)
        stats = engine.stats_dict()
        assert stats["scored_events"] > 0
        assert stats["degraded_events"] == stats["scored_events"] - 1
        assert 0.0 < stats["degraded_fraction"] < 1.0
        modes = stats["update_modes"]
        assert modes["full"] == 1
        assert modes["partial"] + modes["cached"] == stats["degraded_events"]
        assert stats["score_latency"]["count"] == stats["scored_events"]


class TestScorerService:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_submit_before_start_raises(self):
        svc = ScorerService(CountingPredictor)

        async def go():
            await svc.submit(BeginJob(_job()))

        with pytest.raises(RuntimeError, match="start"):
            self._run(go())

    def test_lifecycle_events_in_order(self):
        job = _job(n=60)

        async def go():
            svc = ScorerService(CountingPredictor, config=ServiceConfig(queue_depth=4))
            await svc.start()
            await svc.start()  # idempotent
            await svc.submit(BeginJob(job))
            await svc.drain()
            grid = svc.engine.checkpoint_grid(job.job_id)
            for tau in grid:
                await svc.submit(ScoreCheckpoint(job.job_id, float(tau)))
            await svc.submit(FinishJob(job.job_id))
            await svc.stop()
            return svc, grid

        svc, grid = self._run(go())
        assert job.job_id in svc.results
        taus = [e.tau for e in svc.events]
        assert taus == sorted(taus)
        assert len(svc.events) == grid.shape[0]

    def test_emit_callback_sync_and_async(self):
        job = _job(n=60)

        def collect_sync():
            sink = []

            async def go():
                svc = ScorerService(CountingPredictor, emit=sink.append)
                await svc.start()
                await svc.replay_job(job)
                await svc.stop()
                return svc

            svc = self._run(go())
            return svc, sink

        svc, sink = collect_sync()
        assert len(sink) > 0
        assert svc.events == []  # emitted events are not double-buffered

        async_sink = []

        async def async_emit(event):
            async_sink.append(event)

        async def go_async():
            svc = ScorerService(CountingPredictor, emit=async_emit)
            await svc.start()
            await svc.replay_job(job)
            await svc.stop()

        self._run(go_async())
        assert [e.tau for e in async_sink] == [e.tau for e in sink]

    def test_per_job_order_preserved_across_workers(self):
        jobs = [_job(n=40, seed=i, job_id=f"job-{i}") for i in range(6)]

        async def go():
            svc = ScorerService(
                CountingPredictor,
                config=ServiceConfig(n_workers=3, queue_depth=4),
            )
            await svc.start()
            await svc.replay_trace(jobs)
            await svc.stop()
            return svc

        svc = self._run(go())
        per_job = {}
        for e in svc.events:
            per_job.setdefault(e.job_id, []).append(e.seq)
        assert set(per_job) == {j.job_id for j in jobs}
        for seqs in per_job.values():
            assert seqs == sorted(seqs)  # same-shard routing keeps order

    @pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
    def test_factory_called_once_per_begin_in_submit_order(self, crash):
        """Three shards begin these six jobs out of submit order, and each of
        two crashes with no snapshot re-begins every open job of shard 0.
        The factory still runs once per submitted ``BeginJob``, inside
        ``submit``, and the k-th job flags as a fresh k-th predictor does
        alone."""
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        jobs = [_job(n=40, seed=i, job_id=f"job-{i}") for i in range(6)]
        calls = []

        def factory():
            calls.append(len(calls))
            return DrawingPredictor(seed=calls[-1])

        config = ServiceConfig(n_workers=3, restart_policy=RetryPolicy(base_delay=0.0))
        svc = ScorerService(factory, simulator=sim, config=config)
        crashes = ProcessFaults(crash_at_event=4, crash_times=2)
        chaos = ServiceChaos(FaultPlan(process=crashes))
        if crash:
            chaos.install(svc)
        grids = [sim.checkpoint_grid(job)[1:] for job in jobs]

        async def go():
            await svc.start()
            for k, job in enumerate(jobs):
                await svc.submit(BeginJob(job))
                assert len(calls) == k + 1
            # A duplicate is quarantined, but it has used its call.
            await svc.submit(BeginJob(jobs[0]))
            assert len(calls) == 7
            for r in range(6):
                for job, grid in zip(jobs, grids):
                    await svc.submit(ScoreCheckpoint(job.job_id, float(grid[r])))
            for job in jobs:
                await svc.submit(FinishJob(job.job_id))
            await svc.stop()

        self._run(go())
        assert len(calls) == 7
        assert svc.restarts == chaos.crashes_fired == 2 * crash
        assert svc.dlq.counts() == {"duplicate-job": 1}
        for k, job in enumerate(jobs):
            alone = _engine_run(ScoringEngine(simulator=sim), job, DrawingPredictor(k))
            got = svc.results[job.job_id]
            assert got.y_flag.tobytes() == alone.y_flag.tobytes(), job.job_id
            assert got.flag_times.tobytes() == alone.flag_times.tobytes(), job.job_id

    def test_stop_without_start_is_noop(self):
        async def go():
            svc = ScorerService(CountingPredictor)
            await svc.stop()

        self._run(go())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            ServiceConfig(n_workers=0)
        with pytest.raises(ValueError, match="queue_depth"):
            ServiceConfig(queue_depth=0)


class TestLatencyStats:
    def test_exact_below_capacity(self):
        stats = LatencyStats(max_samples=100)
        for v in [1.0, 2.0, 3.0, 4.0]:
            stats.record(v)
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.p50 == 2.5
        assert stats.percentile(100.0) == 4.0

    def test_reservoir_bounds_memory(self):
        stats = LatencyStats(max_samples=16)
        for i in range(1000):
            stats.record(float(i))
        assert stats.count == 1000
        assert len(stats._samples) == 16
        assert stats.mean == pytest.approx(499.5)
        # Reservoir keeps a uniform sample: median estimate is in the bulk.
        assert 100.0 < stats.p50 < 900.0

    def test_deterministic_reservoir(self):
        a, b = LatencyStats(max_samples=8), LatencyStats(max_samples=8)
        for i in range(200):
            a.record(float(i))
            b.record(float(i))
        assert a._samples == b._samples

    def test_empty_stats(self):
        stats = LatencyStats()
        assert stats.mean == 0.0 and stats.p99 == 0.0
        assert stats.as_dict() == {
            "count": 0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyStats(max_samples=0)
        with pytest.raises(ValueError):
            LatencyStats().record(-1.0)
        with pytest.raises(ValueError):
            LatencyStats().percentile(101.0)
