"""Checkpoint-replay engine (paper §6 "Evaluation methodology").

``ReplaySimulator`` replays one job as a stream: at each time checkpoint
``τ_run_t`` the tasks with latency ≤ τ_run_t are *finished* (their true
latency is revealed) and the rest are *running* (their latency is censored).
The simulator feeds an :class:`~repro.core.base.OnlineStragglerPredictor`
the observable information only, collects its straggler flags, and never
lets a flagged task be evaluated again (paper §7.1).

:class:`ReplayStream` is the one checkpoint loop: :meth:`ReplaySimulator.run`,
:meth:`ReplaySimulator.run_incremental` and the serving engine all step it
over a :class:`CheckpointPlan`, which owns the grid, noise and observed
matrices.

Feature observability: a running task's monitored metrics are still
converging toward their final values, so observed features at checkpoint t
are the final features perturbed multiplicatively by noise that decays with
task progress (fully-finished tasks are observed exactly).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.base import OnlineStragglerPredictor
from repro.learn.metrics import (
    f1_score,
    false_negative_rate,
    false_positive_rate,
    true_positive_rate,
)
from repro.traces.schema import Job
from repro.utils.validation import check_random_state


@dataclass
class ReplayResult:
    """Outcome of replaying one job with one predictor.

    ``flag_time[i]`` is ``np.inf`` for tasks never flagged.
    """

    job_id: str
    tau_stra: float
    y_true: np.ndarray          # ground-truth straggler mask
    y_flag: np.ndarray          # predicted straggler mask (flagged at any point)
    flag_times: np.ndarray      # time each task was flagged (inf = never)
    checkpoints: np.ndarray     # the τ_run_t grid used
    latencies: np.ndarray       # true task execution times (for mitigation)
    #: Task start times; ``None`` means all tasks start at time 0.
    start_times: Optional[np.ndarray] = field(default=None)
    meta: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.latencies = np.asarray(self.latencies, dtype=np.float64)
        if self.start_times is None:
            self.start_times = np.zeros_like(self.latencies)
        else:
            self.start_times = np.asarray(self.start_times, dtype=np.float64)
            if self.start_times.shape != self.latencies.shape:
                raise ValueError(
                    f"start_times has shape {self.start_times.shape} but "
                    f"latencies has shape {self.latencies.shape}."
                )
            if np.any(self.start_times < 0):
                raise ValueError("start_times must be non-negative.")

    @property
    def completion_times(self) -> np.ndarray:
        return self.start_times + self.latencies

    # ------------------------------------------------------------------
    @property
    def tpr(self) -> float:
        return true_positive_rate(self.y_true, self.y_flag)

    @property
    def fpr(self) -> float:
        return false_positive_rate(self.y_true, self.y_flag)

    @property
    def fnr(self) -> float:
        return false_negative_rate(self.y_true, self.y_flag)

    @property
    def f1(self) -> float:
        return f1_score(self.y_true, self.y_flag)

    def f1_at_time(self, tau: float) -> float:
        """F1 of the flags issued up to time ``tau`` against full ground truth."""
        # Mask the inf sentinel explicitly: a never-flagged task must not
        # count as flagged when tau is itself inf.
        flagged_by_tau = np.isfinite(self.flag_times) & (self.flag_times <= tau)
        return f1_score(self.y_true, flagged_by_tau)

    def streaming_f1(self, n_points: int = 10) -> np.ndarray:
        """F1 at ``n_points`` normalized times in (0, 1] (paper Figs. 2–3)."""
        if n_points < 1:
            raise ValueError("n_points must be >= 1.")
        t_max = float(self.completion_times.max())
        taus = np.linspace(1.0 / n_points, 1.0, n_points) * t_max
        return np.array([self.f1_at_time(t) for t in taus])


class CheckpointPlan:
    """Method-independent replay state for one job, shareable across methods.

    The plan is the single owner of a replay's seed, checkpoint grid,
    observation-noise draw, τ_stra and observation model. The simulator
    seeds its RNG per plan from ``random_state`` — not per method — so every
    predictor replaying the same job consumes the same grid, the same noise
    draw, and therefore the same observed feature matrix at each checkpoint.
    A plan computes the grid and noise once and lazily caches each
    checkpoint's observed matrix the first time any stream asks for it;
    replaying the next method against the same plan reuses them all.

    Build with :meth:`ReplaySimulator.plan` and pass to
    :meth:`ReplaySimulator.run` or :meth:`ReplaySimulator.stream` via
    ``plan=``. Cached matrices are frozen read-only and depend only on the
    job, the simulator and ``tau``, so streams and their snapshots share a
    plan by reference; the boolean-mask slices handed to predictors are
    copies, so sharing is invisible to them.
    """

    def __init__(
        self, sim: "ReplaySimulator", job: Job, tau_stra: Optional[float] = None
    ):
        self.sim = sim
        self.job = job
        # RNG consumption order: seed, grid, noise.
        rng = check_random_state(sim.random_state)
        self.grid = sim.checkpoint_grid(job)
        self.noise_matrix = rng.normal(0.0, 1.0, size=job.features.shape)
        if tau_stra is None:
            tau_stra = job.straggler_threshold(sim.straggler_percentile)
        self.tau_stra = float(tau_stra)
        self._observed: Dict[float, np.ndarray] = {}
        #: Observed-matrix rows computed so far (cache misses × n_tasks).
        self.computed_rows = 0

    @property
    def warmup_time(self) -> float:
        return float(self.grid[0])

    @property
    def checkpoints(self) -> np.ndarray:
        return self.grid[1:]

    def observed(self, tau: float) -> np.ndarray:
        """Observed features at ``tau``; computed once, then served frozen."""
        key = float(tau)
        X = self._observed.get(key)
        if X is None:
            X = self.sim.observed_features(self.job, key, self.noise_matrix)
            if X is self.job.features:
                # Noise disabled: the job's own (writable) matrix is returned
                # as-is; nothing to cache or freeze.
                return X
            X.setflags(write=False)
            self._observed[key] = X
            self.computed_rows += X.shape[0]
        return X


class ReplaySimulator:
    """Replays a job's execution for an online straggler predictor.

    Parameters
    ----------
    n_checkpoints : int
        Number of prediction checkpoints between warmup and job completion.
    warmup_fraction : float
        Fraction of tasks that must finish before prediction starts (the
        paper waits for 4% — all necessarily non-stragglers).
    straggler_percentile : float
        τ_stra as a latency percentile (paper uses p90; §6 reports
        robustness over p70–p95).
    feature_noise : float
        Scale of the progress-dependent observation noise on running tasks'
        features; 0 disables it.
    random_state : int or Generator or None
        Seed for the observation noise.
    """

    def __init__(
        self,
        n_checkpoints: int = 15,
        warmup_fraction: float = 0.04,
        straggler_percentile: float = 90.0,
        feature_noise: float = 0.05,
        random_state=None,
    ):
        if n_checkpoints < 1:
            raise ValueError("n_checkpoints must be >= 1.")
        if not 0.0 < warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in (0, 1).")
        if not 0.0 < straggler_percentile < 100.0:
            raise ValueError("straggler_percentile must be in (0, 100).")
        if feature_noise < 0:
            raise ValueError("feature_noise must be non-negative.")
        self.n_checkpoints = n_checkpoints
        self.warmup_fraction = warmup_fraction
        self.straggler_percentile = straggler_percentile
        self.feature_noise = feature_noise
        self.random_state = random_state

    # ------------------------------------------------------------------
    def checkpoint_grid(self, job: Job) -> np.ndarray:
        """τ_run_t values; ``grid[0]`` is the warmup instant.

        Checkpoints are geometric in wall-clock time between the warmup
        instant and just before job completion — a compact stand-in for the
        paper's dense trace checkpoints that covers both the early era (few
        tasks finished, where PU methods flood) and the straggler tail
        (where online updates matter).
        """
        completion = job.completion_times
        warmup_time = float(np.quantile(completion, self.warmup_fraction))
        t_end = 0.98 * float(completion.max())
        t_end = max(t_end, warmup_time * (1.0 + 1e-9))
        grid = np.geomspace(max(warmup_time, 1e-9), t_end, self.n_checkpoints + 1)
        # Enforce a strictly increasing grid: degenerate jobs can collapse
        # the span below float resolution. Checkpoints must be distinct so
        # flag_times identify the checkpoint that issued each flag.
        for i in range(1, grid.shape[0]):
            if grid[i] <= grid[i - 1]:
                grid[i] = np.nextafter(grid[i - 1], np.inf)
        return grid

    def observed_features(
        self, job: Job, tau: float, noise_matrix: np.ndarray
    ) -> np.ndarray:
        """Features observable at time ``tau`` for every task.

        Finished tasks are observed exactly; running tasks get multiplicative
        noise shrinking linearly with execution progress.
        """
        if self.feature_noise == 0.0:
            return job.features
        elapsed = np.maximum(tau - job.start_times, 0.0)
        progress = np.minimum(1.0, elapsed / job.latencies)
        scale = self.feature_noise * (1.0 - progress)
        X = job.features * (1.0 + scale[:, None] * noise_matrix)
        return np.maximum(X, 0.0)

    # ------------------------------------------------------------------
    def plan(self, job: Job, tau_stra: Optional[float] = None) -> CheckpointPlan:
        """Precompute the method-independent replay state for ``job``.

        Pass the plan to :meth:`run` for every method replaying this job so
        the checkpoint grid, noise draw and observed matrices are computed
        once rather than once per method.
        """
        return CheckpointPlan(self, job, tau_stra=tau_stra)

    def run(
        self,
        job: Job,
        predictor: OnlineStragglerPredictor,
        tau_stra: Optional[float] = None,
        plan: Optional[CheckpointPlan] = None,
    ) -> ReplayResult:
        """Replay ``job`` through ``predictor`` and score the outcome."""
        stream = self.stream(job, predictor, tau_stra=tau_stra, plan=plan)
        for tau in stream.checkpoints:
            stream.step(tau)
        return stream.result()

    # ------------------------------------------------------------------
    def stream(
        self,
        job: Job,
        predictor: OnlineStragglerPredictor,
        tau_stra: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
        plan: Optional[CheckpointPlan] = None,
    ) -> "ReplayStream":
        """Open a checkpoint stream for ``job`` (see :class:`ReplayStream`).

        ``plan`` shares one job's grid, noise and observed matrices across
        streams; a fresh plan is built when omitted.
        """
        return ReplayStream(
            self, job, predictor, tau_stra=tau_stra, clock=clock, plan=plan
        )

    def run_incremental(
        self,
        job: Job,
        predictor: OnlineStragglerPredictor,
        tau_stra: Optional[float] = None,
        budget: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> ReplayResult:
        """Replay ``job`` under a per-checkpoint latency budget.

        With ``budget=None`` this is :meth:`run`. A finite ``budget``
        (seconds per checkpoint) enables the latency-budget fast path: when
        the projected model-update cost would blow the budget, the checkpoint
        is scored with the cached predictor state instead (see
        :meth:`ReplayStream.step`).
        """
        stream = self.stream(job, predictor, tau_stra=tau_stra, clock=clock)
        for tau in stream.checkpoints:
            stream.step(tau, budget=budget)
        return stream.result()


@dataclass
class StreamSnapshot:
    """Frozen mid-replay state of a :class:`ReplayStream`.

    Captures everything a restarted stream needs to continue bit-identically:
    a deep copy of the predictor, flag state, the forward-only cursor, and
    the latency-budget bookkeeping. The :class:`CheckpointPlan` (job,
    simulator, grid, noise and cached observed matrices) is shared by
    reference: it caches only frozen, deterministic matrices.

    A snapshot is restorable any number of times:
    :meth:`ReplayStream.from_snapshot` copies the stored state again rather
    than adopting it, so two streams restored from the same snapshot never
    alias each other.
    """

    plan: CheckpointPlan
    predictor: OnlineStragglerPredictor
    tau_stra: float
    flagged: np.ndarray
    flag_times: np.ndarray
    last_tau: float
    n_updates: int
    update_cost: Optional[float]
    partial_cost: Optional[float]
    score_cost: Optional[float]
    credit: float
    degraded_checkpoints: int


@dataclass
class StepOutcome:
    """What happened at one checkpoint."""

    tau: float
    n_finished: int = 0
    n_running: int = 0
    newly_flagged: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.intp)
    )
    scored: bool = False        # False when the checkpoint had nothing to score
    updated: bool = False       # False when the budget degraded the update
    #: "full" = complete refit; "partial" = predictor.partial_update (e.g.
    #: NURD's propensity-only refresh); "cached" = scored on stale state;
    #: "none" = nothing finished/running, checkpoint skipped.
    update_mode: str = "none"
    #: Observed-matrix rows the plan computed for this step: ``n_tasks`` on
    #: a cache miss, 0 on a hit (or with noise disabled).
    refreshed_rows: int = 0
    update_seconds: float = 0.0
    score_seconds: float = 0.0


class ReplayStream:
    """The checkpoint loop of :class:`ReplaySimulator`.

    A stream replays one job over its :class:`CheckpointPlan`: at each
    :meth:`step` the finished tasks are revealed, the running tasks' rows of
    ``plan.observed(tau)`` are scored, and every task is flagged at most
    once. :meth:`ReplaySimulator.run` and
    :meth:`ReplaySimulator.run_incremental` drive a stream over every
    checkpoint; the serving engine steps it one event at a time.

    The per-checkpoint latency budget (``step(budget=...)``) implements the
    serving fast path: an EWMA of past update/score costs projects the next
    checkpoint's latency, and the model update only runs when the budget can
    pay for it. Credit is banked token-bucket style — every scored
    checkpoint accrues ``budget`` seconds, and an update spends its actual
    cost — so a budget of a third of the update cost yields a refit roughly
    every third checkpoint while the long-run average stays within budget.
    Checkpoints in between degrade in tiers: when the predictor offers a
    ``partial_update`` (NURD refreshes its propensity model and keeps the
    cached latency regressor) and the credit covers its projected cost, the
    partial tier runs; otherwise ``predict_stragglers`` runs on the fully
    cached state — the previous refit's regressor and propensity weights.
    The first update of a job always runs, whatever the budget.

    Use :meth:`ReplaySimulator.stream` to construct; drive with :meth:`step`
    over ``self.checkpoints`` (strictly increasing ``tau``) and collect the
    final :class:`ReplayResult` from :meth:`result`.
    """

    #: EWMA smoothing for the projected update/score cost.
    _EWMA = 0.5

    def __init__(
        self,
        sim: ReplaySimulator,
        job: Job,
        predictor: OnlineStragglerPredictor,
        tau_stra: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
        plan: Optional[CheckpointPlan] = None,
    ):
        if plan is None:
            plan = sim.plan(job, tau_stra=tau_stra)
        elif plan.job is not job:
            raise ValueError(
                f"plan was built for job {plan.job.job_id!r}, not "
                f"{job.job_id!r}; plans are per-job."
            )
        elif plan.sim is not sim:
            raise ValueError(
                "plan was built by another ReplaySimulator; plans are "
                "per-simulator."
            )
        self.plan = plan
        self.predictor = predictor
        self.clock = clock
        self.tau_stra = plan.tau_stra if tau_stra is None else float(tau_stra)
        n = job.n_tasks
        self.flagged = np.zeros(n, dtype=bool)
        self.flag_times = np.full(n, np.inf)
        self._last_tau = self.warmup_time
        self._n_updates = 0
        self._update_cost: Optional[float] = None
        self._partial_cost: Optional[float] = None
        self._score_cost: Optional[float] = None
        self._credit = 0.0
        self.degraded_checkpoints = 0
        self._begin()

    @property
    def sim(self) -> ReplaySimulator:
        return self.plan.sim

    @property
    def job(self) -> Job:
        return self.plan.job

    @property
    def warmup_time(self) -> float:
        return self.plan.warmup_time

    @property
    def checkpoints(self) -> np.ndarray:
        return self.plan.checkpoints

    # -- lifecycle ------------------------------------------------------
    def _begin(self) -> None:
        job, y = self.job, self.job.latencies
        completion = job.completion_times
        finished = completion <= self.warmup_time
        if not finished.any():
            # Degenerate grid; force the earliest completion to count.
            finished = completion <= completion.min()
        X0 = self.plan.observed(self.warmup_time)
        running0 = (job.start_times <= self.warmup_time) & ~finished
        X_run0 = X0[running0] if running0.any() else X0[finished]
        self.predictor.begin_job(X0[finished], y[finished], X_run0, self.tau_stra)

    @property
    def last_tau(self) -> float:
        """The last checkpoint stepped (the warmup instant before any step)."""
        return self._last_tau

    # -- crash recovery -------------------------------------------------
    def snapshot(self) -> StreamSnapshot:
        """Freeze the stream's full state for later bit-identical resume.

        The predictor is deep-copied (its fitted state is the expensive,
        mutable part) and the flag arrays are copied; the plan is shared by
        reference.
        """
        return StreamSnapshot(
            plan=self.plan,
            predictor=copy.deepcopy(self.predictor),
            tau_stra=self.tau_stra,
            flagged=self.flagged.copy(),
            flag_times=self.flag_times.copy(),
            last_tau=self._last_tau,
            n_updates=self._n_updates,
            update_cost=self._update_cost,
            partial_cost=self._partial_cost,
            score_cost=self._score_cost,
            credit=self._credit,
            degraded_checkpoints=self.degraded_checkpoints,
        )

    @classmethod
    def from_snapshot(
        cls,
        snap: StreamSnapshot,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "ReplayStream":
        """Rebuild a stream from ``snap``, resuming exactly where it froze.

        Stepping the restored stream over the remaining checkpoints yields
        flags and flag times bit-identical to the uninterrupted stream
        (enforced by ``tests/test_faults.py``). The snapshot itself is left
        untouched — its predictor and arrays are copied again — so it can
        seed any number of restores.
        """
        stream = object.__new__(cls)
        stream.plan = snap.plan
        stream.predictor = copy.deepcopy(snap.predictor)
        stream.clock = clock
        stream.tau_stra = snap.tau_stra
        stream.flagged = snap.flagged.copy()
        stream.flag_times = snap.flag_times.copy()
        stream._last_tau = snap.last_tau
        stream._n_updates = snap.n_updates
        stream._update_cost = snap.update_cost
        stream._partial_cost = snap.partial_cost
        stream._score_cost = snap.score_cost
        stream._credit = snap.credit
        stream.degraded_checkpoints = snap.degraded_checkpoints
        return stream

    def step(self, tau: float, budget: Optional[float] = None) -> StepOutcome:
        """Advance the stream to checkpoint ``tau`` and score running tasks.

        ``tau`` must be strictly greater than the previously stepped
        checkpoint — the stream is forward-only, like the job it replays.
        """
        tau = float(tau)
        if tau <= self._last_tau:
            raise ValueError(
                f"checkpoints must be strictly increasing; got {tau} after "
                f"{self._last_tau}."
            )
        self._last_tau = tau
        job, y = self.job, self.job.latencies
        completion = job.completion_times
        finished = completion <= tau
        running = (job.start_times <= tau) & ~finished & ~self.flagged
        out = StepOutcome(
            tau=tau,
            n_finished=int(finished.sum()),
            n_running=int(running.sum()),
        )
        if not finished.any() or not running.any():
            return out
        rows_before = self.plan.computed_rows
        X_run = self.plan.observed(tau)[running]
        out.refreshed_rows = self.plan.computed_rows - rows_before
        mode = "full"
        partial = getattr(self.predictor, "partial_update", None)
        if budget is not None and self._n_updates > 0:
            self._credit += budget
            score_est = self._score_cost or 0.0
            if (self._update_cost or 0.0) + score_est > self._credit:
                mode = "cached"
                if partial is not None and (
                    self._partial_cost is None
                    or self._partial_cost + score_est <= self._credit
                ):
                    mode = "partial"
        elapsed_run = tau - job.start_times[running]
        if mode == "full":
            t0 = self.clock()
            self.predictor.update(
                job.features[finished], y[finished], X_run, elapsed_run
            )
            out.update_seconds = self.clock() - t0
            self._update_cost = self._ewma(self._update_cost, out.update_seconds)
            self._n_updates += 1
            out.updated = True
        elif mode == "partial":
            t0 = self.clock()
            partial(job.features[finished], y[finished], X_run, elapsed_run)
            out.update_seconds = self.clock() - t0
            self._partial_cost = self._ewma(self._partial_cost, out.update_seconds)
            self.degraded_checkpoints += 1
        else:
            self.degraded_checkpoints += 1
        if budget is not None and out.update_seconds:
            self._credit = max(0.0, self._credit - out.update_seconds)
        out.update_mode = mode
        t0 = self.clock()
        flags = np.asarray(self.predictor.predict_stragglers(X_run), dtype=bool)
        out.score_seconds = self.clock() - t0
        self._score_cost = self._ewma(self._score_cost, out.score_seconds)
        if flags.shape[0] != out.n_running:
            raise ValueError(
                f"{self.predictor.name} returned {flags.shape[0]} flags for "
                f"{out.n_running} running tasks."
            )
        idx = np.nonzero(running)[0][flags]
        self.flagged[idx] = True
        self.flag_times[idx] = tau
        out.newly_flagged = idx
        out.scored = True
        return out

    def _ewma(self, prev: Optional[float], value: float) -> float:
        if prev is None:
            return value
        return self._EWMA * value + (1.0 - self._EWMA) * prev

    def result(self) -> ReplayResult:
        """Collect the stream's outcome as a :class:`ReplayResult`."""
        job = self.job
        return ReplayResult(
            job_id=job.job_id,
            tau_stra=self.tau_stra,
            y_true=job.latencies >= self.tau_stra,
            y_flag=self.flagged.copy(),
            flag_times=self.flag_times.copy(),
            checkpoints=self.checkpoints,
            latencies=job.latencies.copy(),
            start_times=job.start_times.copy(),
            meta={
                "warmup_time": self.warmup_time,
                "degraded_checkpoints": self.degraded_checkpoints,
                "updates": self._n_updates,
            },
        )
