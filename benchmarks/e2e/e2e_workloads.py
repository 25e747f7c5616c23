"""The benchmark's three workloads: load generation, the timed run, checks.

Each workload's trace is pinned: its jobs come from the workload's own base
seed, with task counts on an evenly spaced ladder over its task range, and
their number follows from ``--seconds``. ``--seed`` seeds the checkpoint
stream the predictors receive: the simulator's observation noise and every
predictor (job ``i`` gets ``seed + i``, as ``evaluate_all`` does). One
``(seed, seconds)`` pair therefore always replays the same inputs, every
work count repeats exactly, and a new seed changes what the predictors see
without changing how much work the run holds. (Drawing fresh jobs per seed
made throughput and the closed-loop JCT of a run depend mostly on which
jobs were drawn; see README.md.)

Only public ``repro`` functions are called; nothing inside ``src/`` is
instrumented. Times come from ``time.perf_counter`` around those calls and
are reported in reference seconds (``e2e_speed``); the wall-clock values
go to the record's ``notes.wall``.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import Counter, defaultdict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from e2e_speed import HostSpeed
from e2e_stats import latency_summary

clock = time.perf_counter

#: Checkpoints per job (``EvaluationConfig(n_checkpoints=10)``).
N_CHECKPOINTS = 10


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    kind: str                 # "replay" | "serve"
    family: str               # "google" | "alibaba"
    base_seed: int
    task_range: tuple
    methods: tuple = ()
    #: Work per second of --seconds (jobs for replay, checkpoints per phase
    #: for serve), so one run measures about --seconds on the reference host.
    jobs_per_second: float = 0.0
    burst_ckpts_per_second: float = 0.0
    closed_ckpts_per_second: float = 0.0
    warmup_jobs: int = 1
    parity_jobs: int = 4


#: The 19 Table-3 baselines that fit no latency regressor.
ALIBABA_BASELINES = (
    "ABOD", "CBLOF", "HBOS", "IFOREST", "KNN", "LOF", "MCD", "OCSVM", "PCA",
    "SOS", "LSCP", "COF", "SOD", "XGBOD", "PU-EN", "PU-BG", "Tobit", "CoxPH",
    "Wrangler",
)

WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="replay_google_nurd",
            kind="replay",
            family="google",
            base_seed=42,
            task_range=(100, 400),
            methods=("NURD", "KNN"),
            jobs_per_second=3.3,
            warmup_jobs=2,
            parity_jobs=4,
        ),
        WorkloadSpec(
            name="replay_alibaba_baselines",
            kind="replay",
            family="alibaba",
            base_seed=42,
            task_range=(60, 90),
            methods=ALIBABA_BASELINES,
            # 12 jobs at --seconds 20: p90 needs 100 scored checkpoints.
            jobs_per_second=0.6,
            warmup_jobs=1,
            parity_jobs=1,
        ),
        WorkloadSpec(
            name="serve_google_online",
            kind="serve",
            family="google",
            base_seed=7,
            task_range=(50, 100),
            methods=("NURD",),
            burst_ckpts_per_second=20.0,
            closed_ckpts_per_second=40.0,
            warmup_jobs=4,
        ),
    )
}

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Jobs in flight in the serving schedule (round-robin over them).
IN_FLIGHT = 8

#: Jobs whose service results are checked against batch replay.
SERVE_SAMPLE_JOBS = 10


@dataclass
class RunOutput:
    """One pass of a workload: end-to-end metrics plus check bookkeeping."""

    metrics: Dict[str, float]
    digest: str
    attempted: int
    failed: int
    measure_s: float
    notes: Dict = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


@dataclass
class Scale:
    """How much work one pass does; a pure function of its arguments."""

    seconds: float
    smoke: bool = False

    def task_range(self, spec: WorkloadSpec) -> tuple:
        lo, hi = spec.task_range
        if self.smoke:
            return max(10, lo // 2), max(12, hi // 2)
        return lo, hi

    def count(self, per_second: float, minimum: int) -> int:
        return max(minimum, int(round(self.seconds * per_second)))


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------

def _generator(spec: WorkloadSpec, rng: np.random.Generator, task_range):
    from repro.traces.alibaba import AlibabaTraceGenerator
    from repro.traces.google import GoogleTraceGenerator

    cls = GoogleTraceGenerator if spec.family == "google" else AlibabaTraceGenerator
    return cls(task_range=task_range, random_state=rng)


def task_ladder(n_jobs: int, task_range, rng: np.random.Generator) -> np.ndarray:
    """``n_jobs`` task counts evenly spaced over ``task_range``, shuffled."""
    lo, hi = task_range
    sizes = np.rint(np.linspace(lo, hi, n_jobs)).astype(np.int64)
    return rng.permutation(sizes)


def make_jobs(spec: WorkloadSpec, n_jobs: int, task_range, stream: int, prefix: str):
    """The pinned jobs of ``spec``'s family; ``stream`` separates job sets."""
    rng = np.random.default_rng([spec.base_seed, stream])
    gen = _generator(spec, rng, task_range)
    return [
        gen.generate_job(f"{prefix}-{i:05d}", n_tasks=int(n))
        for i, n in enumerate(task_ladder(n_jobs, task_range, rng))
    ]


def flag_digest(results: Sequence) -> str:
    """BLAKE2 digest of every result's ``y_flag`` and ``flag_times`` bytes."""
    h = hashlib.blake2b(digest_size=16)
    for r in results:
        h.update(r.job_id.encode())
        h.update(np.ascontiguousarray(r.y_flag).tobytes())
        h.update(np.ascontiguousarray(r.flag_times).tobytes())
    return h.hexdigest()


def _same_flags(a, b) -> bool:
    return np.array_equal(a.y_flag, b.y_flag) and np.array_equal(
        a.flag_times, b.flag_times
    )


def _timed_setup(reps: int, setup: Callable[[], object], speed: HostSpeed):
    """Run ``setup`` ``reps`` times; return (last result, wall s, reference s).

    ``setup`` probes the host between its own units of work; a probe before
    each repetition and one after the last bracket them.
    """
    spans, out = [], None
    for _ in range(reps):
        speed.probe()
        t0 = clock()
        out = setup()
        spans.append((t0, clock()))
    speed.probe()
    wall = [t1 - t0 - speed.spent_between(t0, t1) for t0, t1 in spans]
    ref = [speed.reference_seconds(t0, t1) for t0, t1 in spans]
    return out, wall, ref


def _check_speed(speed: HostSpeed, out: "RunOutput") -> None:
    """Every probe of the reference kernel returned the same checksum."""
    out.attempted += 1
    if speed.mismatches:
        out.failed += 1
        out.failures.append(
            f"reference kernel checksum changed in {speed.mismatches} probes"
        )


def _speed_notes(speed: HostSpeed, wall: Dict[str, float]) -> Dict:
    return {
        "host_factor": speed.factor(),
        "probes": len(speed.durations),
        "probe_s": float(sum(speed.durations)),
        "wall": wall,
    }


# ---------------------------------------------------------------------------
# Replay workloads
# ---------------------------------------------------------------------------

class _TimedPredictor:
    """Delegating proxy timing each checkpoint's update + flag query.

    The offline replay has no request boundary. A checkpoint's latency is
    the time every method of the job spends producing its flags there: the
    update followed by the flag query, summed over the job's methods, keyed
    by the method's k-th scored checkpoint. Leading checkpoints with nothing
    finished are skipped by every method alike; a method skips a later one
    only when it has flagged every running task, so the k-th scored
    checkpoint is, bar that case, the same checkpoint for every method. Two
    clock reads per call cost well under a microsecond against
    millisecond-scale updates. Each part is kept with its end time, so it
    is scaled by the host factor of its own moment before the parts are
    summed.
    """

    def __init__(self, inner, parts: List, job_index: int):
        self._inner = inner
        self._parts = parts
        self._job = job_index
        self._k = 0
        self._t0 = 0.0

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def update(self, *args, **kwargs):
        self._t0 = clock()
        return self._inner.update(*args, **kwargs)

    def predict_stragglers(self, X_run):
        out = self._inner.predict_stragglers(X_run)
        t = clock()
        self._parts.append(((self._job, self._k), t, t - self._t0))
        self._k += 1
        return out


def _checkpoint_latencies(parts: List, speed: HostSpeed):
    """Per-checkpoint sums of the timed parts: (wall s, reference s)."""
    keys, stamps, durations = zip(*parts)
    scaled = np.asarray(durations) / speed.factors_at(stamps)
    wall: Dict = defaultdict(float)
    ref: Dict = defaultdict(float)
    for key, d, r in zip(keys, durations, scaled):
        wall[key] += d
        ref[key] += r
    return np.fromiter(wall.values(), float), np.fromiter(ref.values(), float)


def _eval_config(seed: int):
    from repro.eval.harness import EvaluationConfig

    return EvaluationConfig(n_checkpoints=N_CHECKPOINTS, random_state=seed)


def run_replay(
    spec: WorkloadSpec,
    seed: int,
    scale: Scale,
    work_dir: Path,
    tracer=None,
    setup_reps: int = SETUP_REPS,
    checks: bool = True,
) -> RunOutput:
    """Serial ``evaluate_all`` over a ``TraceStore``, then closed-loop JCT.

    The host is probed before each method's replay of a job starts (inside
    the predictor factory, outside every timed checkpoint); the probe time
    is left out of the ``evaluate_all`` time.
    """
    from repro.eval import harness
    from repro.sim.mitigation import ClosedLoopSimulator, MitigationConfig
    from repro.traces import io

    task_range = scale.task_range(spec)
    n_jobs = scale.count(spec.jobs_per_second, 2)
    jobs = make_jobs(spec, n_jobs, task_range, 0, f"{spec.family}-job")
    warm = make_jobs(spec, spec.warmup_jobs, task_range, 1, "warmup")
    methods = list(spec.methods)
    cfg = _eval_config(seed)
    path = work_dir / f"{spec.name}.npz"
    speed = HostSpeed(span=tracer.span if tracer is not None else None)

    def setup():
        io.save_trace_npz(jobs, path)
        store = io.TraceStore(path)
        harness.evaluate_all(warm, methods, cfg)
        return store

    parts: List = []
    build = harness.build_predictor

    def timed_build(*args, **kwargs):
        speed.tick()
        # The harness seeds each job's predictors with random_state + index.
        job = kwargs["random_state"] - cfg.random_state
        return _TimedPredictor(build(*args, **kwargs), parts, job)

    harness.build_predictor = timed_build
    try:
        with _phase(tracer, "bench.setup"):
            store, setup_wall, setup_ref = _timed_setup(setup_reps, setup, speed)
        parts.clear()
        with _phase(tracer, "bench.measure"):
            speed.probe()
            t0 = clock()
            results = harness.evaluate_all(store, methods, cfg)
            t1 = clock()
            speed.probe()
            wall = t1 - t0 - speed.spent_between(t0, t1)
            ref = speed.reference_seconds(t0, t1)
            jct = [
                ClosedLoopSimulator(MitigationConfig())
                .run_many(results[m].replays)
                .mean_jct_reduction_pct
                for m in methods
            ]
            measure_s = clock() - t0
    finally:
        harness.build_predictor = build

    ordered = [r for m in methods for r in results[m].replays]
    wall_samples, ref_samples = _checkpoint_latencies(parts, speed)
    latency = latency_summary(ref_samples)
    wall_latency = latency_summary(wall_samples)
    n_scored = len(ref_samples)
    metrics = {
        "setup_s": float(np.median(setup_ref)),
        "jobs_per_s": n_jobs / ref,
        # Scored checkpoints; skipped ones do no work.
        "ckpt_per_s": n_scored / ref,
        "ckpt_latency_p50_ms": latency["p50_ms"],
        "ckpt_latency_p90_ms": latency["p90_ms"],
        "f1_mean": float(np.mean([results[m].f1 for m in methods])),
        "jct_reduction_pct": float(np.mean(jct)),
    }
    wall_metrics = {
        "setup_s": float(np.median(setup_wall)),
        "jobs_per_s": n_jobs / wall,
        "ckpt_per_s": n_scored / wall,
        "ckpt_latency_p50_ms": wall_latency["p50_ms"],
        "ckpt_latency_p90_ms": wall_latency["p90_ms"],
        "latency": wall_latency,
    }
    out = RunOutput(
        metrics=metrics,
        digest=flag_digest(ordered),
        attempted=n_jobs,
        failed=0,
        measure_s=measure_s,
        notes={
            "n_jobs": n_jobs,
            "tasks": int(sum(j.n_tasks for j in jobs)),
            "methods": len(methods),
            "latency": latency,
            "setup_reps_s": setup_ref,
            "f1_by_method": {m: results[m].f1 for m in methods},
            **_speed_notes(speed, wall_metrics),
        },
    )
    _check_speed(speed, out)
    if checks:
        _check_replay_parity(spec, store, results, methods, cfg, out)
    return out


def _check_replay_parity(spec, store, results, methods, cfg, out: RunOutput) -> None:
    """Batch ``run`` (inside ``evaluate_all``) vs ``run_incremental``."""
    from repro.eval.baselines import build_predictor

    sim = cfg.make_simulator()
    for i in range(min(spec.parity_jobs, len(store))):
        job = store.job(i)
        for m in methods:
            pred = build_predictor(
                m,
                contamination=cfg.contamination,
                random_state=cfg.random_state + i,
                alpha=cfg.alpha,
                eps=cfg.eps,
            )
            if getattr(pred, "needs_offline_labels", False):
                pred.fit_offline(
                    job.features, job.straggler_mask(cfg.straggler_percentile)
                )
            out.attempted += 1
            if not _same_flags(sim.run_incremental(job, pred), results[m].replays[i]):
                out.failed += 1
                out.failures.append(f"run vs run_incremental differ: job {i} {m}")


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------

def serve_schedule(jobs, grids, in_flight: int = IN_FLIGHT) -> Iterator:
    """Requests for ``jobs`` with ``in_flight`` jobs open, round-robin.

    Each job is begun, its checkpoints are interleaved one at a time with
    the other open jobs', and it is finished after its last checkpoint,
    which opens the next job. The order depends only on ``jobs``.
    """
    from repro.serving.service import BeginJob, FinishJob, ScoreCheckpoint

    pending = deque(zip(jobs, grids))
    active: deque = deque()
    while pending or active:
        while pending and len(active) < in_flight:
            job, grid = pending.popleft()
            yield BeginJob(job)
            active.append((job.job_id, iter(grid)))
        job_id, taus = active.popleft()
        tau = next(taus, None)
        if tau is None:
            yield FinishJob(job_id)
            continue
        yield ScoreCheckpoint(job_id, float(tau))
        active.append((job_id, taus))


class _ServePhase:
    """One ScorerService lifetime over a slice of the workload's jobs."""

    def __init__(self, jobs, first_seed: int, sim, speed: Optional[HostSpeed] = None):
        from repro.core.nurd import NurdPredictor
        from repro.serving.service import ScorerService, ServiceConfig

        self.jobs = jobs
        # One shard: the factory is called in BeginJob submission order, so
        # each job's predictor gets the seed of its arrival index.
        seeds = iter(range(first_seed, first_seed + len(jobs)))
        self.service = ScorerService(
            lambda: NurdPredictor(random_state=next(seeds)),
            simulator=sim,
            config=ServiceConfig(n_workers=1, budget=None),
            emit=self._sink,
        )
        self.grids = [sim.checkpoint_grid(job)[1:] for job in jobs]
        self.emitted: Counter = Counter()
        self.emit_time: Dict = {}
        self.submit_time: Dict = {}
        self.speed = speed

    def _sink(self, event) -> None:
        t = clock()
        key = (event.job_id, event.tau)
        self.emitted[(event.job_id, event.seq)] += 1
        self.emit_time[key] = t
        # The pipeline pauses here, after the emit was timed: probe time
        # stays out of every latency and is taken out of the burst span.
        if self.speed is not None:
            self.speed.tick()

    @property
    def n_checkpoints(self) -> int:
        return int(sum(len(g) for g in self.grids))

    async def burst(self):
        """Submit everything as fast as backpressure allows.

        Returns the times of the first submit and of the last emit.
        """
        from repro.serving.service import ScoreCheckpoint

        await self.service.start()
        t_first = clock()
        for req in serve_schedule(self.jobs, self.grids):
            if isinstance(req, ScoreCheckpoint):
                self.submit_time[(req.job_id, req.tau)] = clock()
            await self.service.submit(req)
        await self.service.stop()
        return t_first, max(self.emit_time.values())

    async def closed_loop(self):
        """One client, one outstanding request.

        Returns each checkpoint's submit time and its latency, in seconds.
        """
        from repro.serving.service import ScoreCheckpoint

        await self.service.start()
        stamps, latencies = [], []
        for req in serve_schedule(self.jobs, self.grids):
            t0 = clock()
            await self.service.submit(req)
            await self.service.drain()
            if isinstance(req, ScoreCheckpoint):
                key = (req.job_id, req.tau)
                self.submit_time[key] = t0
                if key in self.emit_time:
                    stamps.append(t0)
                    latencies.append(self.emit_time[key] - t0)
        await self.service.stop()
        return stamps, latencies

    def check(self, out: RunOutput, phase: str) -> None:
        """Exactly one event per checkpoint, empty DLQ, no restarts."""
        expected = Counter(
            (job.job_id, seq)
            for job, grid in zip(self.jobs, self.grids)
            for seq in range(len(grid))
        )
        missing = sum((expected - self.emitted).values())
        duplicate = sum((self.emitted - expected).values())
        dlq = self.service.dlq.total
        restarts = self.service.restarts
        out.attempted += self.n_checkpoints
        bad = missing + duplicate + dlq + restarts
        out.failed += bad
        if bad:
            out.failures.append(
                f"{phase}: missing={missing} duplicate={duplicate} dlq={dlq} "
                f"restarts={restarts}"
            )


def _serving_counts(burst: _ServePhase, closed: _ServePhase, events) -> Dict:
    """Engine and fault counters; queue wait and emit lag when traced.

    ``events`` holds the engine entry/exit times the traced pass records;
    queue wait (submit -> engine entry) is taken from the burst phase, where
    the ingest queue actually fills.
    """
    phases = (burst, closed)
    stats = [p.service.engine.stats_dict() for p in phases]
    out = {
        "scored_events": sum(s["scored_events"] for s in stats),
        "update_modes_full": sum(s["update_modes"]["full"] for s in stats),
        "restarts": sum(p.service.restarts for p in phases),
        "dlq": sum(p.service.dlq.total for p in phases),
    }
    if events:
        enter, leave = events["engine_enter"], events["engine_exit"]
        waits = [enter[k] - t for k, t in burst.submit_time.items() if k in enter]
        lags = [
            t - leave[k] for p in phases for k, t in p.emit_time.items() if k in leave
        ]
        out["queue_wait_ms_p50"] = float(np.percentile(waits, 50) * 1e3)
        out["queue_wait_ms_p99"] = float(np.percentile(waits, 99) * 1e3)
        out["emit_lag_ms_p50"] = float(np.percentile(lags, 50) * 1e3)
    return out


def run_serve(
    spec: WorkloadSpec,
    seed: int,
    scale: Scale,
    work_dir: Path,
    tracer=None,
    setup_reps: int = SETUP_REPS,
    checks: bool = True,
    events: Optional[Dict] = None,
) -> RunOutput:
    """Burst phase then closed-loop phase through ``ScorerService``."""
    from repro.core.nurd import NurdPredictor
    from repro.sim.mitigation import ClosedLoopSimulator, MitigationConfig
    from repro.traces import io

    task_range = scale.task_range(spec)
    n_burst = scale.count(spec.burst_ckpts_per_second / N_CHECKPOINTS, 2)
    n_closed = scale.count(spec.closed_ckpts_per_second / N_CHECKPOINTS, 2)
    n_jobs = n_burst + n_closed
    jobs = make_jobs(spec, n_jobs, task_range, 0, f"{spec.family}-job")
    warm = make_jobs(spec, spec.warmup_jobs, task_range, 1, "warmup")
    sim = _eval_config(seed).make_simulator()
    path = work_dir / f"{spec.name}.npz"
    speed = HostSpeed(span=tracer.span if tracer is not None else None)

    def setup():
        io.save_trace_npz(jobs, path)
        store = io.TraceStore(path)
        asyncio.run(_ServePhase(warm, seed, sim, speed).burst())
        return store

    with _phase(tracer, "bench.setup"):
        store, setup_wall, setup_ref = _timed_setup(setup_reps, setup, speed)

    with _phase(tracer, "bench.measure"):
        t0 = clock()
        burst = _ServePhase([store.job(i) for i in range(n_burst)], seed, sim, speed)
        speed.probe()
        b0, b1 = asyncio.run(burst.burst())
        speed.probe()
        burst_wall = b1 - b0 - speed.spent_between(b0, b1)
        burst_ref = speed.reference_seconds(b0, b1)
        closed = _ServePhase(
            [store.job(i) for i in range(n_burst, n_jobs)], seed + n_burst, sim, speed
        )
        closed_stamps, closed_lat = asyncio.run(closed.closed_loop())
        speed.probe()
        results = [
            phase.service.results[job.job_id]
            for phase in (burst, closed)
            for job in phase.jobs
        ]
        jct = ClosedLoopSimulator(MitigationConfig()).run_many(results)
        wall = clock() - t0

    latency = latency_summary(
        np.asarray(closed_lat) / speed.factors_at(closed_stamps)
    )
    wall_latency = latency_summary(closed_lat)
    metrics = {
        "setup_s": float(np.median(setup_ref)),
        "jobs_per_s": burst.n_checkpoints / burst_ref / N_CHECKPOINTS,
        "ckpt_per_s": burst.n_checkpoints / burst_ref,
        "ckpt_latency_p50_ms": latency["p50_ms"],
        "ckpt_latency_p90_ms": latency["p90_ms"],
        "f1_mean": float(np.mean([r.f1 for r in results])),
        "jct_reduction_pct": jct.mean_jct_reduction_pct,
    }
    wall_metrics = {
        "setup_s": float(np.median(setup_wall)),
        "jobs_per_s": burst.n_checkpoints / burst_wall / N_CHECKPOINTS,
        "ckpt_per_s": burst.n_checkpoints / burst_wall,
        "ckpt_latency_p50_ms": wall_latency["p50_ms"],
        "ckpt_latency_p90_ms": wall_latency["p90_ms"],
        "latency": wall_latency,
    }
    out = RunOutput(
        metrics=metrics,
        digest=flag_digest(results),
        attempted=0,
        failed=0,
        measure_s=wall,
        notes={
            "n_jobs": n_jobs,
            "burst_jobs": n_burst,
            "closed_jobs": n_closed,
            "burst_checkpoints": burst.n_checkpoints,
            "closed_checkpoints": closed.n_checkpoints,
            "latency": latency,
            "setup_reps_s": setup_ref,
            "serving": _serving_counts(burst, closed, events),
            **_speed_notes(speed, wall_metrics),
        },
    )
    burst.check(out, "burst")
    closed.check(out, "closed_loop")
    _check_speed(speed, out)
    if checks:
        rng = np.random.default_rng([spec.base_seed, seed, 2])
        sample = rng.choice(n_jobs, size=min(SERVE_SAMPLE_JOBS, n_jobs), replace=False)
        for i in sorted(int(k) for k in sample):
            out.attempted += 1
            ref = sim.run(store.job(i), NurdPredictor(random_state=seed + i))
            if not _same_flags(ref, results[i]):
                out.failed += 1
                out.failures.append(f"service vs ReplaySimulator.run differ: job {i}")
    return out


def _phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def run_workload(spec: WorkloadSpec, *args, **kwargs) -> RunOutput:
    if spec.kind == "replay":
        kwargs.pop("events", None)
        return run_replay(spec, *args, **kwargs)
    return run_serve(spec, *args, **kwargs)
