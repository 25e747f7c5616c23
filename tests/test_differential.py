"""One differential test: every replay path against an independent loop.

``ReplayStream`` is the one checkpoint loop in ``src/`` (paper §6: finished
tasks reveal their latency, running tasks are scored, a flagged task is
never scored again), but many paths drive it. ``_reference_run`` writes the
loop out once more, without a plan or a stream, and every path must match
its ``y_flag`` and ``flag_times`` bit for bit on jobs hypothesis draws,
with each predictor seeded as the harness seeds it (``random_state`` plus
the job index). The services get theirs from a factory that counts its
calls. Each group of paths is its own test, run on six pinned cases (the
four edge shapes, duplicate tasks, zero noise, staggered starts and every
task done at warmup, across all five methods, plus six jobs, which three
shards begin out of submit order) and on drawn ones. A failure lists each
diverging path, field and job.
"""

import asyncio
import functools
import itertools
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fault_injection import FaultPlan, ProcessFaults, ServiceChaos
from repro.eval import EvaluationConfig, evaluate_all
from repro.eval.baselines import build_predictor
from repro.faults import RetryPolicy
from repro.serving import (
    BeginJob,
    FinishJob,
    ScoreCheckpoint,
    ScorerService,
    ScoringEngine,
    ServiceConfig,
)
from repro.sim.replay import ReplayResult, ReplayStream
from repro.traces import Trace, TraceStore, save_trace_npz
from repro.traces.schema import Job
from repro.utils.validation import check_random_state

METHODS = ("NURD", "NURD-NC", "GBTR", "KNN", "IFOREST")
SHAPES = ("plain", "duplicate", "staggered", "all_at_warmup")
FIELDS = ("job_id", "tau_stra", "checkpoints", "y_flag", "flag_times")


def _reference_run(sim, job, predictor):
    """The checkpoint loop written out once more, without a plan or stream."""
    y, starts, completion = job.latencies, job.start_times, job.completion_times
    # Same RNG consumption order as a plan: seed, grid, noise.
    rng = check_random_state(sim.random_state)
    grid = sim.checkpoint_grid(job)
    noise = rng.normal(0.0, 1.0, size=job.features.shape)
    tau_stra = job.straggler_threshold(sim.straggler_percentile)
    warmup_time, checkpoints = grid[0], grid[1:]

    finished = completion <= warmup_time
    if not finished.any():
        finished = completion <= completion.min()
    flagged = np.zeros(job.n_tasks, dtype=bool)
    flag_times = np.full(job.n_tasks, np.inf)

    X0 = sim.observed_features(job, float(warmup_time), noise)
    running0 = (starts <= warmup_time) & ~finished
    X_run0 = X0[running0] if running0.any() else X0[finished]
    predictor.begin_job(X0[finished], y[finished], X_run0, tau_stra)
    for tau in checkpoints:
        finished = completion <= tau
        running = (starts <= tau) & ~finished & ~flagged
        if not finished.any() or not running.any():
            continue
        X_run = sim.observed_features(job, float(tau), noise)[running]
        elapsed = tau - starts[running]
        predictor.update(job.features[finished], y[finished], X_run, elapsed)
        flags = np.asarray(predictor.predict_stragglers(X_run), dtype=bool)
        idx = np.nonzero(running)[0][flags]
        flagged[idx] = True
        flag_times[idx] = tau
    return ReplayResult(
        job_id=job.job_id,
        tau_stra=float(tau_stra),
        y_true=y >= tau_stra,
        y_flag=flagged,
        flag_times=flag_times,
        checkpoints=checkpoints,
        latencies=y.copy(),
        start_times=starts.copy(),
    )


@dataclass(frozen=True)
class Case:
    """One drawn replay. ``snapshot_at`` is how many checkpoints a stream or
    engine job has stepped when it is snapshotted; ``crash_at`` is mapped
    into the recovery path's crash window (:func:`_crash_event`)."""

    shapes: Tuple[str, ...]
    n_tasks: Tuple[int, ...]
    n_features: int
    n_checkpoints: int
    zero_noise: bool
    seed: int
    method: str
    snapshot_at: int
    crash_at: int
    snapshot_every: Optional[int]

    def config(self) -> EvaluationConfig:
        return EvaluationConfig(
            n_checkpoints=self.n_checkpoints,
            feature_noise=0.0 if self.zero_noise else 0.05,
            random_state=self.seed,
        )

    def trace(self) -> Trace:
        specs = enumerate(zip(self.shapes, self.n_tasks))
        return Trace("differential", [self.job(i, s, n) for i, (s, n) in specs])

    def job(self, i, shape, n) -> Job:
        """A job whose first feature tracks latency, in one of four shapes."""
        rng = np.random.default_rng([self.seed, i])
        if shape == "all_at_warmup":
            y = np.full(n, 5.0)
        else:
            y = rng.lognormal(0.0, 1.0, n) + 0.1
        d = self.n_features
        X = np.column_stack([y * (1 + 0.1 * rng.random(n)), rng.random((n, d - 1))])
        starts = rng.uniform(0.0, 0.5 * y.max(), n) if shape == "staggered" else None
        if shape == "duplicate":  # the last quarter repeats the first rows
            k = n // 4
            X[n - k :], y[n - k :] = X[:k], y[:k]
        return Job(f"job-{i}", X, y, [f"f{j}" for j in range(d)], starts)

    def predictor(self, method, job_index):
        """The predictor the harness builds for job ``job_index``."""
        cfg = self.config()
        return build_predictor(
            method,
            contamination=cfg.contamination,
            random_state=cfg.random_state + job_index,
            alpha=cfg.alpha,
            eps=cfg.eps,
        )


@st.composite
def cases(draw) -> Case:
    n_jobs = draw(st.integers(2, 3))
    n_checkpoints = draw(st.integers(4, 8))
    return Case(
        shapes=tuple(draw(st.sampled_from(SHAPES)) for _ in range(n_jobs)),
        n_tasks=tuple(draw(st.integers(20, 60)) for _ in range(n_jobs)),
        n_features=draw(st.integers(2, 6)),
        n_checkpoints=n_checkpoints,
        zero_noise=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
        method=draw(st.sampled_from(METHODS)),
        snapshot_at=draw(st.integers(0, n_checkpoints - 1)),
        crash_at=draw(st.integers(0, 2**16)),
        snapshot_every=draw(st.sampled_from([None, 2])),
    )


def _counting_factory(case):
    """A plain zero-argument factory: call k builds the harness's predictor
    for job k, so a service must call it once per job in submit order."""
    calls = itertools.count()
    return lambda: case.predictor(case.method, next(calls))


# ---------------------------------------------------------------------------
# The paths: each returns {path name: one result per job}
# ---------------------------------------------------------------------------


def _batch(case, sim, trace):
    other = "GBTR" if case.method == "KNN" else "KNN"
    paths = {"run": [], "run(plan=)": [], "run_incremental": []}
    for i, job in enumerate(trace):
        paths["run"].append(sim.run(job, case.predictor(case.method, i)))
        # A plan that another method consumed (and cached) first.
        plan = sim.plan(job)
        sim.run(job, case.predictor(other, i), plan=plan)
        shared = sim.run(job, case.predictor(case.method, i), plan=plan)
        paths["run(plan=)"].append(shared)
        inc = sim.run_incremental(job, case.predictor(case.method, i))
        paths["run_incremental"].append(inc)
    return paths


def _streams(case, sim, trace):
    """Hand-stepped streams, snapshotted, then restored twice. The source runs
    to the end first, so state a snapshot or a restore shares shows."""
    k = case.snapshot_at
    paths = {"stream": [], "stream.restore[1]": [], "stream.restore[2]": []}
    for i, job in enumerate(trace):
        stream = sim.stream(job, case.predictor(case.method, i))
        for tau in stream.checkpoints[:k]:
            stream.step(tau)
        snap = stream.snapshot()
        for tau in stream.checkpoints[k:]:
            stream.step(tau)
        paths["stream"].append(stream.result())
        for name in ("stream.restore[1]", "stream.restore[2]"):
            resumed = ReplayStream.from_snapshot(snap)
            for tau in resumed.checkpoints[k:]:
                resumed.step(tau)
            paths[name].append(resumed.result())
    return paths


def _engine(case, sim, trace):
    """Jobs interleaved checkpoint by checkpoint. At round ``snapshot_at``
    each is snapshotted, stepped, discarded, restored and stepped again."""
    engine = ScoringEngine(simulator=sim)
    for i, job in enumerate(trace):
        engine.begin_job(job, case.predictor(case.method, i))
    for r in range(case.n_checkpoints):
        for job in trace:
            tau = float(engine.checkpoint_grid(job.job_id)[r])
            if r == case.snapshot_at:
                snap = engine.snapshot(job.job_id)
                engine.score_checkpoint(job.job_id, tau)
                engine.discard(job.job_id)
                engine.restore(snap)
            engine.score_checkpoint(job.job_id, tau)
    return {"engine": [engine.finish_job(job.job_id) for job in trace]}


def _delivered(path, svc, trace):
    """The service's results, and the flags its delivered events rebuild.
    Delivery is exactly once: each job's event seqs run 0, 1, 2, ..."""
    folded = []
    for job in trace:
        mine = [e for e in svc.events if e.job_id == job.job_id]
        seqs = [e.seq for e in mine]
        assert seqs == list(range(len(seqs))), f"{path}: {job.job_id} seqs {seqs}"
        got = SimpleNamespace(y_flag=np.zeros(job.n_tasks, dtype=bool))
        got.flag_times = np.full(job.n_tasks, np.inf)
        for e in mine:
            got.y_flag[e.newly_flagged] = True
            got.flag_times[e.newly_flagged] = e.tau
        folded.append(got)
    results = [svc.results.get(job.job_id) for job in trace]
    return {path: results, f"{path}.events": folded}


def _service(case, sim, trace):
    paths = {}
    for n_workers in (1, 3):
        config = ServiceConfig(n_workers=n_workers)
        svc = ScorerService(_counting_factory(case), simulator=sim, config=config)

        async def go():
            await svc.start()
            await svc.replay_trace(trace)
            await svc.stop()

        asyncio.run(go())
        paths.update(_delivered(f"service[n_workers={n_workers}]", svc, trace))
    return paths


def _harness(case, sim, trace):
    def replays(source):
        return evaluate_all(source, [case.method], case.config())[case.method].replays

    with tempfile.TemporaryDirectory() as tmp:
        with TraceStore(save_trace_npz(trace, Path(tmp) / "t.npz")) as store:
            return {
                "evaluate_all[Trace]": replays(trace),
                "evaluate_all[TraceStore]": replays(store),
            }


def _crash_event(case) -> int:
    """Requests arrive round-robin over the jobs, so with ``snapshot_every=2``
    every job holds a snapshot after ``2 * n_jobs`` events: the crash falls
    at or after that, and recovery must restore."""
    total = len(case.shapes) * case.n_checkpoints
    lo = 2 * len(case.shapes) if case.snapshot_every == 2 else 0
    return lo + case.crash_at % (total - lo)


def _crash_recovery(case, sim, trace):
    """A one-shard service whose worker crashes twice from a drawn event."""
    path = f"crash_recovery[snapshot_every={case.snapshot_every}]"
    policy, sleeps, restores = RetryPolicy(retries=3, base_delay=0.05), [], []

    async def sleep(delay):
        sleeps.append(delay)

    config = ServiceConfig(snapshot_every=case.snapshot_every, restart_policy=policy)
    factory = _counting_factory(case)
    svc = ScorerService(factory, simulator=sim, config=config, sleep=sleep)
    faults = ProcessFaults(crash_at_event=_crash_event(case), crash_times=2)
    chaos = ServiceChaos(FaultPlan(process=faults))
    chaos.install(svc)
    restore = svc.engine.restore
    svc.engine.restore = lambda snap: restores.append(snap) or restore(snap)
    grids = [sim.checkpoint_grid(job)[1:] for job in trace]
    requests = [BeginJob(job) for job in trace]
    for r in range(case.n_checkpoints):
        requests += [ScoreCheckpoint(j.job_id, g[r]) for j, g in zip(trace, grids)]
    requests += [FinishJob(job.job_id) for job in trace]

    async def go():
        await svc.start()
        for request in requests:
            await svc.submit(request)
        await svc.stop()

    asyncio.run(go())
    crashes = chaos.crashes_fired
    assert crashes and svc.restarts == crashes, f"{path}: {svc.restarts} restarts"
    assert sleeps == [policy.delay(a) for a in range(1, crashes + 1)], sleeps
    assert restores or case.snapshot_every is None, f"{path}: no restore ran"
    assert not svc.dlq.total, f"{path}: dead letters {svc.dlq.counts()}"
    return _delivered(path, svc, trace)


def _mismatches(path, got, want):
    """One line per field of each job where ``got`` differs from ``want``."""
    if len(got) != len(want):
        return [f"{path} vs reference: {len(got)} results for {len(want)} jobs"]
    out = []
    for i, (g, w) in enumerate(zip(got, want)):
        if g is None:
            out.append(f"{path} vs reference: no result, job {i}")
            continue
        for field in FIELDS:
            if not hasattr(g, field):
                continue  # delivered events carry flags only
            a, b = getattr(g, field), getattr(w, field)
            if isinstance(b, np.ndarray):
                same = a.dtype == b.dtype and a.tobytes() == b.tobytes()
            else:
                same = a == b
            if not same:
                out.append(f"{path} vs reference: {field} differ, job {i}")
    return out


def _pinned(shapes, method, **kw):
    fields = dict(
        shapes=shapes,
        n_tasks=(48, 36, 60)[: len(shapes)],
        n_features=3,
        n_checkpoints=6,
        zero_noise=False,
        seed=11,
        method=method,
        snapshot_at=3,
        crash_at=5,
        snapshot_every=None,
    )
    return Case(**{**fields, **kw})


PATHS = (_batch, _streams, _engine, _service, _harness, _crash_recovery)
PATH_IDS = [paths.__name__.lstrip("_") for paths in PATHS]

# The four edge shapes, all five methods, and jobs that three shards begin
# out of submit order (job-4 before job-2), on every run.
PINNED = {
    "duplicate-NURD": _pinned(("duplicate", "duplicate"), "NURD", snapshot_every=2),
    "zero_noise-GBTR": _pinned(("plain", "plain", "plain"), "GBTR", zero_noise=True),
    "staggered-NURD-NC": _pinned(
        ("staggered",) * 2, "NURD-NC", snapshot_every=2, seed=4
    ),
    "all_at_warmup-IFOREST": _pinned(
        ("all_at_warmup", "plain"), "IFOREST", snapshot_at=1
    ),
    "mixed-KNN": _pinned(("plain", "staggered", "duplicate"), "KNN", n_checkpoints=8),
    "six_jobs-IFOREST": _pinned(
        ("plain",) * 6, "IFOREST", n_tasks=(24, 30, 36, 24, 30, 36)
    ),
}


@functools.lru_cache(maxsize=None)
def _reference(case):
    """The reference results for ``case``, shared by every group of paths."""
    sim = case.config().make_simulator()
    trace = case.trace()
    return [
        _reference_run(sim, job, case.predictor(case.method, i))
        for i, job in enumerate(trace)
    ]


def _assert_matches_reference(case, paths):
    reference = _reference(case)
    problems = []
    sim, trace = case.config().make_simulator(), case.trace()
    for path, got in paths(case, sim, trace).items():
        problems += _mismatches(path, got, reference)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("paths", PATHS, ids=PATH_IDS)
@pytest.mark.parametrize("case", list(PINNED.values()), ids=list(PINNED))
def test_edge_shape_matches_reference(case, paths):
    _assert_matches_reference(case, paths)


@pytest.mark.parametrize("paths", PATHS, ids=PATH_IDS)
@settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    database=None,
    # A failure already names its paths, fields and jobs; shrinking would
    # replay the paths many more times to say less.
    phases=(Phase.generate,),
)
@given(case=cases())
def test_drawn_jobs_match_reference(paths, case):
    _assert_matches_reference(case, paths)
