"""Trace data model: jobs, tasks and the feature schemas of Tables 1 and 2."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: Google trace task features (paper Table 1).
GOOGLE_FEATURES: List[str] = [
    "MCU",  # Mean CPU usage
    "MAXCPU",  # Maximum CPU usage
    "SCPU",  # Sampled CPU usage
    "CMU",  # Canonical memory usage
    "AMU",  # Assigned memory usage
    "MAXMU",  # Maximum memory usage
    "UPC",  # Unmapped page cache memory usage
    "TPC",  # Total page cache memory usage
    "MIO",  # Mean disk I/O time
    "MAXIO",  # Maximum disk I/O time
    "MDK",  # Mean local disk space used
    "CPI",  # Cycles per instruction
    "MAI",  # Memory accesses per instruction
    "EV",  # Number of times task is evicted
    "FL",  # Number of times task fails
]

#: Alibaba trace instance features (paper Table 2).
ALIBABA_FEATURES: List[str] = [
    "cpu_avg",  # Avg. CPU numbers of instance running
    "cpu_max",  # Max. CPU numbers of instance running
    "mem_avg",  # Avg. normalized memory of instance running
    "mem_max",  # Max. normalized memory of instance running
]


@dataclass
class Job:
    """One datacenter job: a batch of tasks executed in parallel.

    Attributes
    ----------
    job_id : str
        Unique identifier.
    features : ndarray of shape (n_tasks, d)
        Final (fully observed) per-task feature vectors. The replay simulator
        derives checkpoint observations ``x_ti`` from these (see
        :class:`repro.sim.replay.ReplaySimulator`).
    latencies : ndarray of shape (n_tasks,)
        True task execution times (positive). Stragglers are defined on
        execution time, not completion time (paper §2).
    feature_names : list of str
        Column names; length d.
    start_times : ndarray of shape (n_tasks,) or None
        When each task starts executing. Real schedulers launch tasks in
        waves as machines free up, so at any moment young and old tasks
        coexist. None means all tasks start at time 0.
    meta : dict
        Generator metadata (latency family, coupling strength, ...) — useful
        for analysis, never visible to predictors.
    """

    job_id: str
    features: np.ndarray
    latencies: np.ndarray
    feature_names: List[str]
    start_times: Optional[np.ndarray] = None
    meta: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.latencies = np.asarray(self.latencies, dtype=np.float64)
        if self.start_times is None:
            self.start_times = np.zeros_like(self.latencies)
        else:
            self.start_times = np.asarray(self.start_times, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        """Raise a ``ValueError`` unless the payload is well formed.

        Checks 2-d features with one name per column and at least one task,
        one latency and one start time per task, finite features, finite
        positive latencies and finite non-negative start times. Errors name
        the job and the first offending task. The constructor calls this;
        the scoring engine and the scorer service call it again at ingest,
        because arrays can be damaged after construction (bitrot, a buggy
        upstream joiner).
        """
        job = f"job {self.job_id!r}"
        features = np.asarray(self.features, dtype=np.float64)
        latencies = np.asarray(self.latencies, dtype=np.float64)
        starts = np.asarray(self.start_times, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"{job}: features must be 2-d; got {features.ndim}-d.")
        n, d = features.shape
        if latencies.shape != (n,) or starts.shape != (n,):
            raise ValueError(
                f"{job}: mismatched lengths — {n} feature rows, latencies of "
                f"shape {latencies.shape}, start times of shape {starts.shape}."
            )
        if n == 0:
            raise ValueError(f"{job} has no tasks.")
        if d != len(self.feature_names):
            raise ValueError(
                f"{job}: features has {d} columns but "
                f"{len(self.feature_names)} names were given."
            )
        bad = ~np.isfinite(features).all(axis=1)
        if bad.any():
            task = int(np.argmax(bad))
            raise ValueError(
                f"{job}, task {task}: features contain NaN or infinite values."
            )
        bad = ~(np.isfinite(latencies) & (latencies > 0))
        if bad.any():
            task = int(np.argmax(bad))
            raise ValueError(
                f"{job}, task {task}: duration {latencies[task]!r} is not a "
                "finite positive number."
            )
        bad = ~(np.isfinite(starts) & (starts >= 0))
        if bad.any():
            task = int(np.argmax(bad))
            raise ValueError(
                f"{job}, task {task}: start time {starts[task]!r} is not finite "
                "and non-negative."
            )

    @property
    def completion_times(self) -> np.ndarray:
        """Wall-clock completion of each task (start + execution time)."""
        return self.start_times + self.latencies

    @property
    def n_tasks(self) -> int:
        return self.latencies.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def straggler_threshold(self, percentile: float = 90.0) -> float:
        """The job's straggling latency threshold τ_stra (default p90)."""
        if not 0.0 < percentile < 100.0:
            raise ValueError("percentile must be in (0, 100).")
        return float(np.percentile(self.latencies, percentile))

    def straggler_mask(self, percentile: float = 90.0) -> np.ndarray:
        """Boolean ground truth: latency ≥ τ_stra."""
        return self.latencies >= self.straggler_threshold(percentile)


@dataclass
class Trace:
    """A named collection of jobs (one trace dataset)."""

    name: str
    jobs: List[Job] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def __getitem__(self, i: int) -> Job:
        return self.jobs[i]

    @property
    def n_tasks(self) -> int:
        return sum(j.n_tasks for j in self.jobs)

    def iter_jobs(self):
        """Yield jobs in order — the same protocol :class:`TraceStore` and
        the trace generators expose, so consumers can stay source-agnostic."""
        return iter(self.jobs)
