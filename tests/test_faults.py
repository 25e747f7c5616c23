"""Tests for the fault-injection harness and the hardening that survives it.

Crash recovery, emit retry and backoff are exercised with injected fake
clocks/sleepers and seeded fault plans, so every fault fires (and every
recovery happens) deterministically — the wall clock never decides a test.
The plans and the wrappers that inject them live in ``fault_injection.py``
next to this file; the program itself carries no injection hook. That a
recovered run flags bit for bit like the reference loop is
``test_differential.py``'s job; the cases here check what recovery counts,
sleeps and reports.
"""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from fault_injection import (
    EventFaults,
    FaultPlan,
    FlakySink,
    ProcessFaults,
    RequestInjector,
    ServiceChaos,
    collect_flags,
    flaky_predictor_factory,
    make_poison_job,
)
from repro.core.nurd import NurdPredictor
from repro.faults import DeadLetterQueue, RetryPolicy
from repro.serving import (
    BeginJob,
    FinishJob,
    ScoreCheckpoint,
    ScorerService,
    ScoringEngine,
    ServiceConfig,
    ServiceFailure,
)
from repro.sim.replay import ReplaySimulator
from repro.traces.io import TraceStore, load_trace_csv, save_trace_npz
from repro.traces.schema import Job, Trace


def _job(n=50, seed=0, job_id="j"):
    rng = np.random.default_rng(seed)
    y = rng.lognormal(0.0, 1.0, n) + 0.1
    X = np.column_stack([y * (1 + 0.05 * rng.random(n)), rng.random(n)])
    return Job(job_id, X, y, ["lat_proxy", "aux"], None)


class CountingPredictor:
    """Cheap deterministic predictor for service plumbing tests."""

    name = "counting"

    def __init__(self, flag_every=5):
        self.flag_every = flag_every

    def begin_job(self, X_fin, y_fin, X_run, tau_stra):
        return self

    def update(self, X_fin, y_fin, X_run):
        return self

    def predict_stragglers(self, X_run):
        n = X_run.shape[0]
        flags = np.zeros(n, dtype=bool)
        flags[:: self.flag_every] = n > self.flag_every
        return flags


class SleepRecorder:
    """Injectable async sleeper: records delays, never actually waits."""

    def __init__(self):
        self.calls = []

    async def __call__(self, delay):
        self.calls.append(float(delay))


def _requests(sim, jobs):
    """Full begin → checkpoints → finish request stream for ``jobs``."""
    out = []
    for job in jobs:
        out.append(BeginJob(job))
        for tau in sim.checkpoint_grid(job)[1:]:
            out.append(ScoreCheckpoint(job.job_id, float(tau)))
        out.append(FinishJob(job.job_id))
    return out


async def _drive(svc, requests):
    await svc.start()
    for request in requests:
        await svc.submit(request)
    await svc.drain()


def _event_keys(events):
    return [
        (e.job_id, e.seq, e.tau, tuple(int(i) for i in e.newly_flagged)) for e in events
    ]


def _run_service(
    jobs,
    sim,
    factory,
    config=None,
    chaos=None,
    sleep=None,
    emit=None,
    requests=None,
    raise_on_failure=True,
):
    """Drive a service over the jobs' request stream; return the service."""
    svc = ScorerService(
        factory,
        simulator=sim,
        config=config or ServiceConfig(),
        emit=emit,
        sleep=sleep or asyncio.sleep,
    )
    if chaos is not None:
        chaos.install(svc)

    async def go():
        await _drive(svc, requests or _requests(sim, jobs))
        await svc.stop(raise_on_failure=raise_on_failure)

    asyncio.run(go())
    return svc


# ---------------------------------------------------------------------------
# Plans, policies, DLQ
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rng_is_deterministic_per_tag(self):
        plan = FaultPlan(seed=7)
        a = plan.rng(tag=1).random(4)
        b = FaultPlan(seed=7).rng(tag=1).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, plan.rng(tag=2).random(4))
        assert not np.array_equal(a, FaultPlan(seed=8).rng(tag=1).random(4))

    def test_event_rate_validation(self):
        with pytest.raises(ValueError, match="sum"):
            EventFaults(drop_rate=0.6, duplicate_rate=0.5)
        with pytest.raises(ValueError, match="drop_rate"):
            EventFaults(drop_rate=1.5)
        with pytest.raises(ValueError, match="corrupt kinds"):
            EventFaults(corrupt_kinds=("nan-tau", "gamma-ray"))
        with pytest.raises(ValueError, match="delay_span"):
            EventFaults(delay_span=0)

    def test_process_validation(self):
        with pytest.raises(ValueError, match="sink outage"):
            ProcessFaults(sink_outage_events=0)


class TestRetryPolicy:
    def test_capped_exponential_schedule(self):
        policy = RetryPolicy(retries=5, base_delay=0.05, factor=2.0, max_delay=0.3)
        assert policy.delays() == (0.05, 0.1, 0.2, 0.3, 0.3)

    def test_zero_retries_disables(self):
        assert RetryPolicy(retries=0).delays() == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="factor"):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0)


class TestDeadLetterQueue:
    def test_counters_survive_eviction(self):
        dlq = DeadLetterQueue(maxlen=3)
        for i in range(10):
            dlq.push(i, "stale-tau" if i % 2 else "malformed-tau", job_id="j")
        assert len(dlq) == 3
        assert dlq.total == 10
        assert dlq.evicted == 7
        assert dlq.counts() == {"stale-tau": 5, "malformed-tau": 5}
        summary = dlq.as_dict()
        assert summary["held"] == 3 and summary["total"] == 10
        # The held letters are the newest ones, in order.
        assert [letter.item for letter in dlq] == [7, 8, 9]

    def test_maxlen_validation(self):
        with pytest.raises(ValueError, match="maxlen"):
            DeadLetterQueue(maxlen=0)


# ---------------------------------------------------------------------------
# Payload validation (engine, CSV, store)
# ---------------------------------------------------------------------------


#: A malformed value planted at task 3: (array, value, what the message says).
BAD_PAYLOADS = {
    "nan-feature": ("features", np.nan, "features"),
    "inf-feature": ("features", -np.inf, "features"),
    "nan-latency": ("latencies", np.nan, "duration"),
    "inf-latency": ("latencies", np.inf, "duration"),
    "zero-latency": ("latencies", 0.0, "duration"),
    "nan-start": ("start_times", np.nan, "start time"),
    "inf-start": ("start_times", np.inf, "start time"),
    "negative-start": ("start_times", -1.0, "start time"),
}


class TestPayloadValidation:
    def test_validate_names_job_and_task(self):
        job = _job(job_id="wounded")
        job.features[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"'wounded', task 3.*features"):
            job.validate()

        job = _job(job_id="wounded")
        job.latencies[7] = np.nan
        with pytest.raises(ValueError, match=r"'wounded', task 7.*duration"):
            job.validate()

        job = _job(job_id="wounded")
        job.latencies[2] = -1.0
        with pytest.raises(ValueError, match="task 2"):
            job.validate()

    @pytest.mark.parametrize("kind", list(BAD_PAYLOADS))
    def test_constructor_rejects_bad_payload(self, kind):
        # Job used to accept NaN latencies, NaN start times and non-finite
        # features; its straggler threshold was then NaN and a replay
        # failed much later with "X has 0 samples".
        name, value, what = BAD_PAYLOADS[kind]
        clean = _job()
        arrays = {
            "features": clean.features.copy(),
            "latencies": clean.latencies.copy(),
            "start_times": clean.start_times.copy(),
        }
        arrays[name][3] = value
        with pytest.raises(ValueError, match=rf"^job 'bad', task 3: {what}"):
            Job("bad", feature_names=clean.feature_names, **arrays)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="'ragged': mismatched lengths"):
            Job("ragged", np.ones((5, 2)), np.ones(4), ["a", "b"], np.zeros(5))
        job = _job(job_id="ragged")
        job.start_times = job.start_times[1:]
        with pytest.raises(ValueError, match="'ragged': mismatched lengths"):
            job.validate()

    def test_engine_rejects_poison_begin(self):
        engine = ScoringEngine()
        poison = make_poison_job(_job(), "nan-feature", "poison")
        with pytest.raises(ValueError, match="'poison', task 0"):
            engine.begin_job(poison, CountingPredictor())
        assert not engine.has_job("poison")

    def test_engine_rejects_non_finite_tau(self):
        engine = ScoringEngine()
        job = _job()
        engine.begin_job(job, CountingPredictor())
        with pytest.raises(ValueError, match="not finite"):
            engine.score_checkpoint(job.job_id, float("nan"))

    def test_csv_row_width_checked(self, tmp_path, write_trace_csv):
        trace = Trace(name="t", jobs=[_job(n=20)])
        path = write_trace_csv(trace, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1])  # drop one cell
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4"):
            load_trace_csv(path)

    def test_csv_nan_latency_rejected(self, tmp_path, write_trace_csv):
        job = _job(n=20, job_id="sick")
        job.latencies[5] = np.nan  # planted after construction, like bitrot
        path = write_trace_csv(Trace(name="t", jobs=[job]), tmp_path / "t.csv")
        with pytest.raises(ValueError, match=r"'sick', task 5"):
            load_trace_csv(path)

    @pytest.mark.parametrize("source", ["csv", "store"])
    def test_loaders_validate_each_job_once(
        self, monkeypatch, tmp_path, write_trace_csv, source
    ):
        # The loaders used to check a payload copy and then build the Job,
        # which checked it again.
        jobs = [_job(n=20, job_id="a"), _job(n=30, seed=1, job_id="b")]
        if source == "csv":
            path = write_trace_csv(Trace(name="t", jobs=jobs), tmp_path / "t.csv")
        else:
            path = save_trace_npz(jobs, tmp_path / "t.npz")
        calls, validate = [], Job.validate

        def counting(job):
            calls.append(job.job_id)
            validate(job)

        monkeypatch.setattr(Job, "validate", counting)
        if source == "csv":
            loaded = load_trace_csv(path).jobs
        else:
            loaded = list(TraceStore(path).iter_jobs())
        assert [job.job_id for job in loaded] == calls == ["a", "b"]

    def test_store_validates_jobs(self, tmp_path):
        job = _job(n=20, job_id="sick")
        job.latencies[4] = np.inf
        path = save_trace_npz([job], tmp_path / "t.npz")
        store = TraceStore(path)
        with pytest.raises(ValueError, match=r"'sick', task 4"):
            store.job(0)


# ---------------------------------------------------------------------------
# Flag accounting (duplicate-delivery dedup)
# ---------------------------------------------------------------------------


def _event(job_id, seq, tau, flags):
    return SimpleNamespace(
        job_id=job_id, seq=seq, tau=tau, newly_flagged=np.asarray(flags)
    )


class TestCollectFlags:
    def test_duplicate_event_ignored(self):
        events = [
            _event("a", 0, 1.0, [2]),
            _event("a", 0, 1.0, [2]),  # redelivered verbatim
            _event("a", 1, 2.0, [5]),
        ]
        account = collect_flags(events, {"a": 10})["a"]
        assert account.events == 2
        assert account.duplicate_events == 1
        assert account.y_flag.sum() == 2

    def test_reflag_does_not_double_count(self):
        # The same task flagged in two distinct events (recovery replay
        # without sequence dedup): one flag, earliest time, counted once.
        events = [
            _event("a", 0, 3.0, [4]),
            _event("a", 1, 5.0, [4, 6]),
        ]
        account = collect_flags(events, {"a": 10})["a"]
        assert account.y_flag.sum() == 2
        assert account.duplicate_flags == 1
        assert account.flag_times[4] == 3.0

    def test_out_of_order_redelivery_keeps_min_time(self):
        events = [
            _event("a", 1, 5.0, [4]),
            _event("a", 0, 3.0, [4]),  # late original arrives second
        ]
        account = collect_flags(events, {"a": 10})["a"]
        assert account.flag_times[4] == 3.0
        assert account.duplicate_flags == 1

    def test_unknown_job_raises(self):
        with pytest.raises(KeyError):
            collect_flags([_event("ghost", 0, 1.0, [])], {"a": 5})


# ---------------------------------------------------------------------------
# Request injector
# ---------------------------------------------------------------------------


class TestRequestInjector:
    PLAN = FaultPlan(
        seed=3,
        events=EventFaults(
            drop_rate=0.1,
            duplicate_rate=0.1,
            delay_rate=0.1,
            corrupt_rate=0.1,
            poison_jobs=2,
        ),
    )

    def _stream(self, plan=None):
        sim = ReplaySimulator(n_checkpoints=10, random_state=0)
        jobs = [_job(seed=i, job_id=f"job-{i}") for i in range(3)]
        injector = RequestInjector(plan or self.PLAN)
        return list(injector.stream(_requests(sim, jobs))), injector

    def test_deterministic(self):
        a, inj_a = self._stream()
        b, inj_b = self._stream()
        assert inj_a.log == inj_b.log
        assert [
            (type(r).__name__, getattr(r, "job_id", None), getattr(r, "tau", None))
            for r in a
        ] == [
            (type(r).__name__, getattr(r, "job_id", None), getattr(r, "tau", None))
            for r in b
        ]

    def test_accounting_identity(self):
        delivered, injector = self._stream()
        log = injector.log
        # Every checkpoint got exactly one fate.
        n_checkpoints = 3 * 10
        fates = (
            log["clean"]
            + log["dropped"]
            + log["duplicated"]
            + log["delayed_stale"]
            + log["delayed_clean"]
            + log["corrupted"]
        )
        assert fates == n_checkpoints
        assert log["poisoned"] == 2
        checkpoints = [r for r in delivered if isinstance(r, ScoreCheckpoint)]
        # Dropped vanish; duplicates add one delivery each.
        assert len(checkpoints) == n_checkpoints - log["dropped"] + log["duplicated"]

    def test_drop_everything(self):
        plan = FaultPlan(seed=0, events=EventFaults(drop_rate=1.0))
        delivered, injector = self._stream(plan)
        assert injector.log["dropped"] == 30
        assert not any(isinstance(r, ScoreCheckpoint) for r in delivered)

    def test_poison_jobs_are_malformed(self):
        delivered, _ = self._stream()
        poison = [
            r.job
            for r in delivered
            if isinstance(r, BeginJob) and r.job.job_id.startswith("poison-")
        ]
        assert len(poison) == 2
        for job in poison:
            with pytest.raises(ValueError):
                job.validate()


# ---------------------------------------------------------------------------
# Engine: discard, then begin again (recovery's rebuild)
# ---------------------------------------------------------------------------


def test_discard_then_begin_restarts_the_job():
    """A discarded job begun again replays from ``seq`` 0 with the same
    events, which is what lets the service's dedup drop those it delivered
    before a crash."""
    job = _job(n=60, seed=5)
    engine = ScoringEngine(simulator=ReplaySimulator(n_checkpoints=8, random_state=0))
    engine.begin_job(job, CountingPredictor())
    grid = engine.checkpoint_grid(job.job_id)
    before = [engine.score_checkpoint(job.job_id, tau) for tau in grid[:3]]
    assert engine.discard(job.job_id)
    assert not engine.has_job(job.job_id)
    assert not engine.discard(job.job_id)
    engine.begin_job(job, CountingPredictor())
    assert engine.last_tau(job.job_id) < grid[0]
    after = [engine.score_checkpoint(job.job_id, tau) for tau in grid[:3]]
    assert [e.seq for e in after] == [e.seq for e in before] == [0, 1, 2]
    for a, b in zip(after, before):
        assert a.tau == b.tau
        np.testing.assert_array_equal(a.newly_flagged, b.newly_flagged)


# ---------------------------------------------------------------------------
# Service: crash recovery, supervision, backoff
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def _parts(self, n_jobs=2):
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        jobs = [_job(n=60, seed=10 + i, job_id=f"job-{i}") for i in range(n_jobs)]
        factory = lambda: NurdPredictor(random_state=0)  # noqa: E731
        return sim, jobs, factory

    def test_hardened_unfaulted_service_matches_engine(self):
        sim, jobs, factory = self._parts()
        engine = ScoringEngine(simulator=sim)
        for job in jobs:
            engine.begin_job(job, factory())
            for tau in engine.checkpoint_grid(job.job_id):
                engine.score_checkpoint(job.job_id, float(tau))
            engine.finish_job(job.job_id)
        config = ServiceConfig(
            restart_policy=RetryPolicy(retries=4, base_delay=0.0),
            emit_policy=RetryPolicy(retries=3, base_delay=0.0),
        )
        svc = _run_service(jobs, sim, factory, config=config, sleep=SleepRecorder())
        assert svc.engine.update_mode_counts == engine.update_mode_counts
        assert svc.restarts == 0 and svc.dlq.total == 0 and not svc.failures

    def test_transient_fit_error_recovers_with_parity(self):
        sim, jobs, factory = self._parts(n_jobs=1)
        clean = _run_service(jobs, sim, factory)

        plan = FaultPlan(
            seed=2,
            process=ProcessFaults(fit_error_at_update=1, fit_error_times=1),
        )
        flaky = flaky_predictor_factory(factory, plan)
        svc = _run_service(jobs, sim, flaky, sleep=SleepRecorder())

        assert flaky.fuse.fired == 1
        assert svc.restarts == 1
        assert _event_keys(svc.events) == _event_keys(clean.events)
        got = svc.results[jobs[0].job_id]
        want = clean.results[jobs[0].job_id]
        np.testing.assert_array_equal(got.y_flag, want.y_flag)
        np.testing.assert_array_equal(got.flag_times, want.flag_times)

    @pytest.mark.parametrize(
        "n_workers, crash_at",
        [
            pytest.param(w, k, id=f"workers={w}-at={k}")
            for w, n_positions in ((1, 12), (3, 6))
            for k in range(n_positions)
        ],
    )
    def test_a_crash_at_any_checkpoint_delivers_the_clean_stream(
        self, n_workers, crash_at
    ):
        """Shard 0 crashes once, at each of its checkpoints in turn (all 12
        with one worker; job-2's and job-3's 6 with three, while the other
        shards run). Recovery rebuilds every open job from its log, and the
        consumer sees the fault-free events exactly once."""
        sim = ReplaySimulator(n_checkpoints=3, random_state=0)
        jobs = [
            _job(n=40, seed=30 + i, job_id=job_id)
            for i, job_id in enumerate(("job-2", "job-0", "job-3", "job-1"))
        ]
        factory = lambda: NurdPredictor(random_state=0)  # noqa: E731
        config = ServiceConfig(
            n_workers=n_workers, restart_policy=RetryPolicy(retries=1, base_delay=0.0)
        )
        clean = _run_service(jobs, sim, factory, config=config)
        plan = FaultPlan(process=ProcessFaults(crash_at_event=crash_at))
        chaos = ServiceChaos(plan)
        svc = _run_service(
            jobs, sim, factory, config=config, chaos=chaos, sleep=SleepRecorder()
        )
        routes = [svc._route(job.job_id) for job in jobs]
        assert routes == ([0, 0, 0, 0] if n_workers == 1 else [0, 1, 0, 2])
        assert chaos.crashes_fired == 1 and svc.restarts == 1
        assert not svc.failures and not svc.dlq.total
        assert sorted(_event_keys(svc.events)) == sorted(_event_keys(clean.events))
        n_tasks = {job.job_id: job.n_tasks for job in jobs}
        accounts = collect_flags(svc.events, n_tasks)
        for job in jobs:
            assert accounts[job.job_id].duplicate_events == 0
            got, want = svc.results[job.job_id], clean.results[job.job_id]
            np.testing.assert_array_equal(got.y_flag, want.y_flag)
            np.testing.assert_array_equal(got.flag_times, want.flag_times)

    def test_one_restart_per_crash_while_another_shard_runs(self):
        """Shard 0 recovers while shard 1 works through its backlog: the
        async sink yields between shard 0's replayed emits, and shard 1
        begins and finishes jobs meanwhile. One crash costs one restart."""
        sim = ReplaySimulator(n_checkpoints=4, random_state=0)
        jobs = [_job(n=40, seed=i, job_id=f"job-{i}") for i in (4, 5, 0, 1, 2)]
        delivered = []

        async def sink(event):
            await asyncio.sleep(0)
            delivered.append(event)

        chaos = ServiceChaos(FaultPlan(process=ProcessFaults(crash_at_event=0)))
        config = ServiceConfig(
            n_workers=2, restart_policy=RetryPolicy(retries=3, base_delay=0.0)
        )
        svc = _run_service(
            jobs,
            sim,
            CountingPredictor,
            config=config,
            chaos=chaos,
            sleep=SleepRecorder(),
            emit=sink,
        )
        assert [svc._route(job.job_id) for job in jobs] == [0, 0, 1, 1, 1]
        assert chaos.crashes_fired == 1
        assert svc.restarts == 1
        assert not svc.failures and not svc.dlq.total
        assert set(svc.results) == {job.job_id for job in jobs}
        assert len(delivered) == 5 * 4

    def test_restart_budget_exhaustion_marks_shard_dead(self):
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        jobs = [_job(n=40, seed=3)]
        plan = FaultPlan(
            process=ProcessFaults(crash_shard=0, crash_at_event=1, crash_times=99),
        )
        chaos = ServiceChaos(plan)
        config = ServiceConfig(restart_policy=RetryPolicy(retries=1, base_delay=0.0))
        svc = _run_service(
            jobs,
            sim,
            CountingPredictor,
            config=config,
            chaos=chaos,
            sleep=SleepRecorder(),
            raise_on_failure=False,
        )
        assert svc.failures, "exhausted restarts must surface in failures"
        stats = svc.fault_stats()
        assert stats["dead_shards"] == [0]
        # The crashing request dead-letters, later requests see a dead shard.
        assert svc.dlq.reasons["shard-failed"] == 1
        assert svc.dlq.reasons["shard-dead"] > 0

    def test_stop_raises_service_failure(self):
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        jobs = [_job(n=40, seed=3)]
        plan = FaultPlan(
            process=ProcessFaults(crash_shard=0, crash_at_event=1, crash_times=99),
        )
        config = ServiceConfig(restart_policy=RetryPolicy(retries=0))
        with pytest.raises(ServiceFailure, match="shard 0"):
            _run_service(
                jobs,
                sim,
                CountingPredictor,
                config=config,
                chaos=ServiceChaos(plan),
                sleep=SleepRecorder(),
            )


class TestSinkRetry:
    def _run(self, process, emit_retries, n_checkpoints=6):
        sim = ReplaySimulator(n_checkpoints=n_checkpoints, random_state=0)
        jobs = [_job(n=40, seed=6)]
        delivered = []
        sink = FlakySink(delivered.append, FaultPlan(process=process))
        sleeper = SleepRecorder()
        config = ServiceConfig(
            emit_policy=RetryPolicy(retries=emit_retries, base_delay=0.01)
        )
        svc = _run_service(
            jobs, sim, CountingPredictor, config=config, emit=sink, sleep=sleeper
        )
        return svc, sink, delivered, sleeper

    def test_retry_rides_out_outage(self):
        svc, sink, delivered, sleeper = self._run(
            ProcessFaults(
                sink_outage_at=2, sink_outage_events=2, sink_failures_per_event=2
            ),
            emit_retries=2,
        )
        assert sink.failures == 4
        assert sleeper.calls == [0.01, 0.02, 0.01, 0.02]
        assert svc.dlq.total == 0
        # Every event delivered exactly once, in order.
        assert [e.seq for e in delivered] == list(range(len(delivered)))

    def test_exhausted_retries_dead_letter(self):
        svc, sink, delivered, _ = self._run(
            ProcessFaults(
                sink_outage_at=1, sink_outage_events=2, sink_failures_per_event=9
            ),
            emit_retries=2,
        )
        assert svc.dlq.reasons["emit-failed"] == 2
        assert len(delivered) == 6 - 2
        # Dead-lettered events never crash the worker or stall later emits.
        assert not svc.failures


# ---------------------------------------------------------------------------
# Service: quarantine + DLQ accounting
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_reject_reasons(self):
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        job = _job(n=40, seed=8, job_id="good")
        svc = ScorerService(CountingPredictor, simulator=sim)

        async def go():
            await svc.start()
            await svc.submit(BeginJob(job))
            await svc.drain()
            grid = svc.engine.checkpoint_grid("good")
            await svc.submit(ScoreCheckpoint("good", float(grid[0])))
            await svc.submit(ScoreCheckpoint("good", float(grid[0])))  # stale
            await svc.submit(ScoreCheckpoint("good", float("nan")))  # malformed
            await svc.submit(ScoreCheckpoint("ghost", float(grid[1])))  # unknown
            await svc.submit(BeginJob(job))  # duplicate
            await svc.submit(BeginJob(make_poison_job(job, "nan-latency", "poison")))
            nan_tau = _job(n=40, seed=9, job_id="nan-tau")
            await svc.submit(BeginJob(nan_tau, tau_stra=float("nan")))
            await svc.submit(FinishJob("ghost"))  # unknown
            await svc.drain()
            await svc.stop()

        asyncio.run(go())
        assert svc.dlq.counts() == {
            "stale-tau": 1,
            "malformed-tau": 1,
            "unknown-job": 2,
            "duplicate-job": 1,
            "malformed-payload": 2,
        }
        assert len(svc.events) == 1  # only the clean checkpoint scored
        malformed = [x.job_id for x in svc.dlq if x.reason == "malformed-payload"]
        assert malformed == ["poison", "nan-tau"]
        assert not svc.engine.has_job("nan-tau")

    @pytest.mark.parametrize(
        "factory",
        [CountingPredictor, lambda: NurdPredictor(random_state=0)],
        ids=["counting", "nurd"],
    )
    def test_dlq_holds_exactly_injected_events(self, factory):
        sim = ReplaySimulator(n_checkpoints=10, random_state=0)
        jobs = [_job(n=50, seed=20 + i, job_id=f"job-{i}") for i in range(3)]
        plan = FaultPlan(
            seed=9,
            events=EventFaults(
                duplicate_rate=0.2,
                delay_rate=0.15,
                corrupt_rate=0.2,
                poison_jobs=3,
            ),
        )

        def run():
            injector = RequestInjector(plan)
            faulted = list(injector.stream(_requests(sim, jobs)))
            return injector, _run_service(jobs, sim, factory, requests=faulted)

        injector, svc = run()
        assert injector.expected_rejects > 0
        assert svc.dlq.total == injector.expected_rejects
        assert svc.dlq.reasons["malformed-payload"] == injector.log["poisoned"]
        assert (
            svc.dlq.reasons["malformed-tau"] + svc.dlq.reasons["unknown-job"]
            == injector.log["corrupted:nan-tau"]
            + injector.log["corrupted:inf-tau"]
            + injector.log["corrupted:unknown-job"]
        )
        # All real jobs still produced results; nothing crashed.
        assert not svc.failures
        assert set(svc.results) == {job.job_id for job in jobs}
        # Exactly-once accounting: the delivered events rebuild every mask.
        accounts = collect_flags(svc.events, {job.job_id: job.n_tasks for job in jobs})
        for job_id, result in svc.results.items():
            np.testing.assert_array_equal(accounts[job_id].y_flag, result.y_flag)
            np.testing.assert_array_equal(
                accounts[job_id].flag_times, result.flag_times
            )
        # F1 degrades gracefully, and every fault decision replays exactly.
        clean = _run_service(jobs, sim, factory)
        f1 = [np.mean([r.f1 for r in s.results.values()]) for s in (clean, svc)]
        assert f1[1] >= 0.6 * f1[0]
        _, again = run()
        assert _event_keys(again.events) == _event_keys(svc.events)
        assert again.dlq.counts() == svc.dlq.counts()
