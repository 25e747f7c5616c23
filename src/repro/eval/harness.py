"""Evaluation harness: runs methods over traces and aggregates the paper's
metrics (Table 3, Figures 2–9).

Every job trains an independent predictor (one model per job, per the
paper), so replays embarrassingly parallelize: pass ``n_workers > 1`` to
:func:`evaluate_all` to fan jobs out over a process pool. Results are
bit-identical to the serial path — each replay seeds its own simulator RNG
and predictor from the job index, independent of execution order.

The pool never pickles job arrays into its tasks. The trace is served
from a columnar :class:`~repro.traces.io.TraceStore`: workers attach once
to the memory-mapped store in their initializer (the OS page cache shares
the bytes across processes) and each work unit carries only a job index.
An in-memory :class:`~repro.traces.schema.Trace` is spilled to a
temporary store (``/dev/shm`` when available) for the run, so a parallel
run needs a trace the store can hold: one feature schema across all jobs.
Work units are job-major — one unit replays *all* methods for one job
against a shared :class:`~repro.sim.replay.CheckpointPlan` — and
``pool.map`` returns their results in job order. A unit that raises
surfaces its own exception, serially or from the pool; replays are pure
functions of the unit, so re-running a failed one would fail the same way.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

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

    @property
    def tpr(self) -> float:
        return float(np.mean([r.tpr for r in self.replays]))

    @property
    def fpr(self) -> float:
        return float(np.mean([r.fpr for r in self.replays]))

    @property
    def fnr(self) -> float:
        return float(np.mean([r.fnr for r in self.replays]))

    @property
    def f1(self) -> float:
        return float(np.mean([r.f1 for r in self.replays]))

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


def _replay_unit(unit: Tuple[Tuple[str, ...], EvaluationConfig, int]):
    """Read a work unit's job from the worker's store and replay it."""
    methods, config, job_index = unit
    return _replay_job(_WORKER_STORE.job(job_index), methods, config, job_index)


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


def _replay_pooled(
    trace: Union[Trace, TraceStore, Iterable[Job]],
    n_jobs: Optional[int],
    methods: Tuple[str, ...],
    config: EvaluationConfig,
    n_workers: int,
) -> List[List[ReplayResult]]:
    """Replay every job over a process pool attached to a shared store."""
    spilled = not isinstance(trace, TraceStore)
    # A trace the store cannot hold (mixed feature schemas) raises here.
    store_path = _spill_to_store(trace) if spilled else trace.path
    try:
        if n_jobs is None:
            with TraceStore(store_path) as meta:
                n_jobs = meta.n_jobs
        units = [(methods, config, i) for i in range(n_jobs)]
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_worker_attach,
            initargs=(str(store_path),),
        ) as pool:
            return list(pool.map(_replay_unit, units))
    finally:
        if spilled:
            store_path.unlink(missing_ok=True)


def evaluate_all(
    trace: Union[Trace, TraceStore, Iterable[Job]],
    methods: Iterable[str],
    config: Optional[EvaluationConfig] = None,
    n_workers: Optional[int] = None,
) -> Dict[str, MethodResult]:
    """Replay every job of ``trace`` through each method and collect results.

    A fresh predictor is built per job and method (the paper trains a
    unique model per job); Wrangler additionally receives its offline
    labeled sample. All methods share the job's checkpoint plan (grid,
    noise, observed features) and the simulator seed. ``trace`` may be an
    in-memory :class:`Trace`, a memory-mapped :class:`TraceStore`, or any
    iterable of jobs. ``n_workers > 1`` distributes jobs over a process
    pool whose workers attach to the store by path; an in-memory trace is
    spilled to a temporary store first, so its jobs must share one feature
    schema (``save_trace_npz`` raises a ``ValueError`` naming the first job
    that does not). For one method, take ``evaluate_all(trace, [m])[m]``.
    """
    config = config or EvaluationConfig()
    methods = tuple(methods)
    try:
        n_jobs: Optional[int] = len(trace)  # type: ignore[arg-type]
    except TypeError:
        n_jobs = None
    if n_workers is None or n_workers <= 1 or (n_jobs or 2) <= 1:
        source = trace.iter_jobs() if hasattr(trace, "iter_jobs") else iter(trace)
        per_job = [_replay_job(job, methods, config, i) for i, job in enumerate(source)]
    else:
        per_job = _replay_pooled(trace, n_jobs, methods, config, n_workers)
    return {
        m: MethodResult(method=m, replays=[results[k] for results in per_job])
        for k, m in enumerate(methods)
    }


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
        entry: Dict = {"unlimited": res.jct_reduction(None, random_state=random_state)}
        if machine_counts:
            by_m = {
                m: res.jct_reduction(m, random_state=random_state)
                for m in machine_counts
            }
            entry["by_machines"] = by_m
            entry["avg_limited"] = float(np.mean(list(by_m.values())))
        table[method] = entry
    return table
