"""Evaluation harness: runs methods over traces and aggregates the paper's
metrics (Table 3, Figures 2–9).

Every job trains an independent predictor (one model per job, per the
paper), so replays embarrassingly parallelize: pass ``n_workers > 1`` to
:func:`evaluate_method` / :func:`evaluate_all` to fan jobs out over a
process pool. Results are bit-identical to the serial path — each replay
seeds its own simulator RNG and predictor from the job index, independent
of execution order.

The pool never pickles job arrays into its tasks. The trace is served
from a columnar :class:`~repro.traces.io.TraceStore`: workers attach once
to the memory-mapped store in their initializer (the OS page cache shares
the bytes across processes) and each work unit carries only a job index.
An in-memory :class:`~repro.traces.schema.Trace` is transparently spilled
to a temporary store (``/dev/shm`` when available) for the run, so a
parallel run needs a trace the store can hold: one feature schema across
all jobs. Work units are job-major — one unit replays *all* methods for
one job against a shared :class:`~repro.sim.replay.CheckpointPlan` — and
are streamed into the pool through a bounded submission window, so neither
the task queue nor the result backlog ever holds the whole trace.
"""

from __future__ import annotations

import os
import tempfile
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.eval.baselines import build_predictor
from repro.sim.mitigation import jct_reduction
from repro.sim.replay import ReplayResult, ReplaySimulator
from repro.traces.io import TraceStore, save_trace_npz
from repro.traces.schema import Job, Trace


@dataclass
class EvaluationConfig:
    """Shared evaluation parameters (paper §6).

    - ``straggler_percentile`` = 90 (p90 threshold; §6 reports robustness
      over p70–p95),
    - ``warmup_fraction`` = 0.04 (predict once 4% of tasks finish),
    - ``alpha`` = 0.5, ``eps`` = 0.05 (NURD's tuned hyperparameters).
    """

    n_checkpoints: int = 10
    warmup_fraction: float = 0.04
    straggler_percentile: float = 90.0
    feature_noise: float = 0.05
    # NURD's calibration hyperparameters, tuned per trace family on 6 jobs
    # (the paper's §6 protocol): α = 0.5 / ε = 0.05 for Google-style traces
    # (the paper's values); Alibaba-style traces tune to α = 0.35.
    alpha: float = 0.5
    eps: float = 0.05
    #: Trace-level tuned settings per method, e.g. {"Grabit": {"sigma": s}}
    #: from :func:`repro.eval.tuning.tuned_method_params`.
    method_params: Optional[Dict[str, Dict]] = None
    random_state: int = 0

    @property
    def contamination(self) -> float:
        return 1.0 - self.straggler_percentile / 100.0

    def make_simulator(self) -> ReplaySimulator:
        return ReplaySimulator(
            n_checkpoints=self.n_checkpoints,
            warmup_fraction=self.warmup_fraction,
            straggler_percentile=self.straggler_percentile,
            feature_noise=self.feature_noise,
            random_state=self.random_state,
        )


@dataclass
class MethodResult:
    """Per-method evaluation outcome over a trace."""

    method: str
    replays: List[ReplayResult] = field(default_factory=list)
    #: Per-attribute mean cache: attr -> (replay identity snapshot, value).
    #: Appending, removing, or replacing a replay changes the snapshot and
    #: invalidates the entry; each attr keeps exactly one cached value.
    _mean_cache: Dict[str, Tuple[Tuple[int, ...], float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _mean(self, attr: str) -> float:
        snapshot = tuple(map(id, self.replays))
        cached = self._mean_cache.get(attr)
        if cached is not None and cached[0] == snapshot:
            return cached[1]
        value = float(np.mean([getattr(r, attr) for r in self.replays]))
        self._mean_cache[attr] = (snapshot, value)
        return value

    @property
    def tpr(self) -> float:
        return self._mean("tpr")

    @property
    def fpr(self) -> float:
        return self._mean("fpr")

    @property
    def fnr(self) -> float:
        return self._mean("fnr")

    @property
    def f1(self) -> float:
        return self._mean("f1")

    def streaming_f1(self, n_points: int = 10) -> np.ndarray:
        """Mean streaming F1 over jobs at ``n_points`` normalized times."""
        return np.mean([r.streaming_f1(n_points) for r in self.replays], axis=0)

    def jct_reduction(self, n_machines: Optional[int] = None, random_state=0) -> float:
        """Average % JCT reduction under paper Algorithm 2 (``n_machines=None``)
        or Algorithm 3 on an ``n_machines`` cluster: kill-restart runs of the
        closed loop, see :func:`repro.sim.mitigation.jct_reduction`."""
        return jct_reduction(
            self.replays, n_machines=n_machines, random_state=random_state
        )

    def as_row(self) -> Dict[str, float]:
        return {
            "method": self.method,
            "tpr": self.tpr,
            "fpr": self.fpr,
            "fnr": self.fnr,
            "f1": self.f1,
        }


@dataclass
class ReplayProgress:
    """One completed (method, job) replay, reported as the run advances.

    ``n_total`` is ``None`` when the job source has no known length (a bare
    generator evaluated serially).
    """

    method: str
    job_id: str
    job_index: int
    n_done: int
    n_total: Optional[int]


#: Per-worker handle on the shared trace store, opened once by the pool
#: initializer so every work unit carries only a job index. The mmap'd
#: column bytes live in the OS page cache, shared across all workers.
_WORKER_STORE: Optional[TraceStore] = None


def _worker_attach(store_path: str) -> None:
    global _WORKER_STORE
    _WORKER_STORE = TraceStore(store_path)


def _replay_job(
    job: Job, methods: Tuple[str, ...], config: EvaluationConfig, job_index: int
) -> List[ReplayResult]:
    """Replay every method over one job — the unit of parallel work.

    All methods share one :class:`CheckpointPlan` (the grid, noise draw and
    observed matrices are method-independent), so per-job setup runs once
    rather than once per method. Each method still gets a fresh predictor
    seeded from the job index, so results do not depend on scheduling.
    """
    sim = config.make_simulator()
    plan = sim.plan(job)
    out: List[ReplayResult] = []
    for method in methods:
        predictor = build_predictor(
            method,
            contamination=config.contamination,
            random_state=config.random_state + job_index,
            alpha=config.alpha,
            eps=config.eps,
            method_params=config.method_params,
        )
        if getattr(predictor, "needs_offline_labels", False):
            predictor.fit_offline(
                job.features, job.straggler_mask(config.straggler_percentile)
            )
        out.append(sim.run(job, predictor, plan=plan))
    return out


def _replay_unit(
    unit: Tuple[Tuple[str, ...], EvaluationConfig, int],
    attempt: int = 0,
) -> List[ReplayResult]:
    """Read a work unit's job from the worker's store and replay it.

    ``attempt`` numbers re-dispatches of the same unit (0 = first try). The
    replay ignores it: replays are pure functions of the unit, so a retried
    unit returns bit-identical results. It is kept as the one hook the
    pool-retry tests need, which install a picklable stand-in for this
    function that fails a unit's first attempts.
    """
    methods, config, job_index = unit
    return _replay_job(_WORKER_STORE.job(job_index), methods, config, job_index)


def _iter_bounded(pool, fn, units, window: int, retries: int = 0) -> Iterator:
    """``pool.map`` with a bounded, order-preserving submission window.

    At most ``window`` futures are outstanding, so streaming a 1000-job
    trace never materializes the full task queue up front.

    A unit whose future raises is re-dispatched up to ``retries`` times
    (with an incremented attempt number) before the error propagates.
    Results still yield in submission order — the retried unit simply
    settles later — so recovered runs are indistinguishable from clean
    ones. A broken pool is never retried: the workers are gone.
    """
    pending: deque = deque()  # (future, unit, attempt) triples

    for unit in units:
        pending.append((pool.submit(fn, unit, 0), unit, 0))
        if len(pending) >= window:
            yield _settle(pool, fn, pending, retries)
    while pending:
        yield _settle(pool, fn, pending, retries)


def _settle(pool, fn, pending: deque, retries: int):
    """Resolve the oldest outstanding unit, re-dispatching failures."""
    future, unit, attempt = pending.popleft()
    while True:
        try:
            return future.result()
        except BrokenProcessPool:
            raise
        except Exception:
            if attempt >= retries:
                raise
            attempt += 1
            future = pool.submit(fn, unit, attempt)


def _spill_to_store(jobs) -> Path:
    """Write jobs to a temporary columnar store for shared-memory fan-out.

    Prefers ``/dev/shm`` (RAM-backed tmpfs: worker mmaps never touch disk);
    falls back to the regular temp dir.
    """
    shm = Path("/dev/shm")
    base = shm if shm.is_dir() and os.access(shm, os.W_OK) else None
    fd, name = tempfile.mkstemp(
        prefix="repro-trace-", suffix=".npz", dir=base and str(base)
    )
    os.close(fd)
    path = Path(name)
    try:
        save_trace_npz(jobs, path)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _evaluate(
    trace: Union[Trace, TraceStore, Iterable[Job]],
    methods: List[str],
    config: EvaluationConfig,
    n_workers: Optional[int],
    progress: Optional[Callable[[ReplayProgress], None]],
    retries: int = 0,
) -> Dict[str, List[ReplayResult]]:
    """Core job-major evaluation loop shared by the public entry points."""
    if retries < 0:
        raise ValueError("retries must be >= 0.")
    method_tuple = tuple(methods)
    per_method: Dict[str, List[ReplayResult]] = {m: [] for m in methods}
    try:
        n_jobs: Optional[int] = len(trace)  # type: ignore[arg-type]
    except TypeError:
        n_jobs = None
    n_total = None if n_jobs is None else n_jobs * len(methods)
    n_done = 0

    def emit(job_index: int, results: List[ReplayResult]) -> None:
        nonlocal n_done
        for method, result in zip(methods, results):
            per_method[method].append(result)
            n_done += 1
            if progress is not None:
                progress(
                    ReplayProgress(
                        method=method,
                        job_id=result.job_id,
                        job_index=job_index,
                        n_done=n_done,
                        n_total=n_total,
                    )
                )

    serial = n_workers is None or n_workers <= 1 or (n_jobs or 2) <= 1
    if serial:
        source = trace.iter_jobs() if hasattr(trace, "iter_jobs") else iter(trace)
        for i, job in enumerate(source):
            attempt = 0
            while True:
                try:
                    results = _replay_job(job, method_tuple, config, i)
                    break
                except Exception:
                    if attempt >= retries:
                        raise
                    attempt += 1
            emit(i, results)
        return per_method

    window = max(2, 2 * n_workers)
    spilled = not isinstance(trace, TraceStore)
    # A trace the store cannot hold (mixed feature schemas) raises here.
    store_path = _spill_to_store(trace) if spilled else trace.path
    try:
        if n_jobs is None:
            with TraceStore(store_path) as meta:
                n_jobs = meta.n_jobs
            n_total = n_jobs * len(methods)
        units = ((method_tuple, config, i) for i in range(n_jobs))
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_worker_attach,
            initargs=(str(store_path),),
        ) as pool:
            for i, results in enumerate(
                _iter_bounded(pool, _replay_unit, units, window, retries)
            ):
                emit(i, results)
    finally:
        if spilled:
            store_path.unlink(missing_ok=True)
    return per_method


def evaluate_method(
    trace: Union[Trace, TraceStore, Iterable[Job]],
    method: str,
    config: Optional[EvaluationConfig] = None,
    n_workers: Optional[int] = None,
    progress: Optional[Callable[[ReplayProgress], None]] = None,
    retries: int = 0,
) -> MethodResult:
    """Replay every job of ``trace`` through ``method`` and collect results.

    A fresh predictor is built per job (the paper trains a unique model per
    job); Wrangler additionally receives its offline labeled sample.
    ``trace`` may be an in-memory :class:`Trace`, a memory-mapped
    :class:`TraceStore`, or any iterable of jobs. ``n_workers > 1``
    distributes jobs over a process pool whose workers attach to the store
    by path; an in-memory trace is spilled to a temporary store first, so
    its jobs must share one feature schema (``save_trace_npz`` raises a
    ``ValueError`` naming the first job that does not). ``progress`` is
    called in the parent after each completed replay.

    ``retries`` re-dispatches a failed work unit up to that many times
    before surfacing the error; recovered runs keep result order and are
    bit-identical to clean ones (replays are pure functions of the unit).
    """
    config = config or EvaluationConfig()
    per_method = _evaluate(trace, [method], config, n_workers, progress, retries)
    return MethodResult(method=method, replays=per_method[method])


def evaluate_all(
    trace: Union[Trace, TraceStore, Iterable[Job]],
    methods: Iterable[str],
    config: Optional[EvaluationConfig] = None,
    n_workers: Optional[int] = None,
    progress: Optional[Callable[[ReplayProgress], None]] = None,
    retries: int = 0,
) -> Dict[str, MethodResult]:
    """Evaluate several methods on the same trace (same simulator seed).

    Work is job-major: one unit replays all methods for one job, sharing
    the job's checkpoint plan (grid, noise, observed features) across
    methods. With ``n_workers > 1`` units stream through one shared pool
    behind a bounded submission window; see :func:`evaluate_method` for
    ``n_workers``, ``progress`` and ``retries``.
    """
    config = config or EvaluationConfig()
    methods = list(methods)
    per_method = _evaluate(trace, methods, config, n_workers, progress, retries)
    return {m: MethodResult(method=m, replays=per_method[m]) for m in methods}


def streaming_f1_curve(
    results: Dict[str, MethodResult], n_points: int = 10
) -> Dict[str, np.ndarray]:
    """Figures 2–3: per-method streaming F1 over normalized time."""
    return {m: r.streaming_f1(n_points) for m, r in results.items()}


def jct_reduction_table(
    results: Dict[str, MethodResult],
    machine_counts: Optional[List[int]] = None,
    random_state: int = 0,
) -> Dict[str, Dict]:
    """Figures 4–9: JCT reduction per method.

    Returns ``{method: {"unlimited": float, "by_machines": {m: float},
    "avg_limited": float}}``. ``machine_counts=None`` computes only the
    unlimited-machines case (Algorithm 2, Figures 4–5); each machine count
    runs Algorithm 3 (Figures 6–9). Relaunch draws are per task, so every
    method and machine count sees the same draw for a given task.
    """
    table: Dict[str, Dict] = {}
    for method, res in results.items():
        entry: Dict = {
            "unlimited": res.jct_reduction(None, random_state=random_state)
        }
        if machine_counts:
            by_m = {
                m: res.jct_reduction(m, random_state=random_state)
                for m in machine_counts
            }
            entry["by_machines"] = by_m
            entry["avg_limited"] = float(np.mean(list(by_m.values())))
        table[method] = entry
    return table
