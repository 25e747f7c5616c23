"""The incremental scoring engine behind the scorer service.

One engine owns many concurrent job streams (one
:class:`~repro.sim.replay.ReplayStream` each — the same checkpoint loop
:meth:`~repro.sim.replay.ReplaySimulator.run` drives) and scores checkpoint
events against them under an optional per-checkpoint latency budget. It is
the synchronous core that :class:`repro.serving.service.ScorerService`
drives from its async ingest queue, and is usable directly for
single-threaded replay at serving speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serving.stats import LatencyStats
from repro.sim.replay import ReplayResult, ReplaySimulator, ReplayStream
from repro.traces.schema import Job


@dataclass
class ScoreEvent:
    """Emitted once per scored checkpoint of one job."""

    job_id: str
    tau: float
    seq: int  # per-job checkpoint sequence number
    newly_flagged: np.ndarray  # task indices flagged at this checkpoint
    n_running: int
    n_finished: int
    scored: bool  # False when nothing was running/finished
    degraded: bool  # True when the budget degraded the update
    update_mode: str  # "full" | "partial" | "cached" | "none"
    latency_s: float  # end-to-end engine latency for the event
    score_s: float  # predict_stragglers time alone


class ScoringEngine:
    """Scores checkpoint events for many in-flight jobs incrementally.

    The caller builds each job's predictor and hands it to
    :meth:`begin_job` (the paper trains one model per job).

    Parameters
    ----------
    simulator : ReplaySimulator or None
        Supplies the observation model (noise scale, grid, warmup); a
        default simulator is built when omitted.
    budget : float or None
        Per-checkpoint latency budget in seconds. When the projected model
        update would exceed it, the checkpoint degrades to the cached
        predictor state (previous checkpoint's regressor and propensity
        weights) and only scoring runs. ``None`` disables the budget, making
        every event bit-identical to ``ReplaySimulator.run``.
    clock : callable
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        simulator: Optional[ReplaySimulator] = None,
        budget: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative or None.")
        self.simulator = simulator if simulator is not None else ReplaySimulator()
        self.budget = budget
        self.clock = clock
        self._streams: Dict[str, ReplayStream] = {}
        self._seq: Dict[str, int] = {}
        self.checkpoint_stats = LatencyStats()
        self.score_stats = LatencyStats()
        self.degraded_events = 0
        self.scored_events = 0
        self.update_mode_counts: Dict[str, int] = {"full": 0, "partial": 0, "cached": 0}

    # ------------------------------------------------------------------
    @property
    def active_jobs(self) -> List[str]:
        return list(self._streams)

    def has_job(self, job_id: str) -> bool:
        """Whether ``job_id`` currently has an open stream."""
        return job_id in self._streams

    def last_tau(self, job_id: str) -> float:
        """The job's last stepped checkpoint (warmup instant before any)."""
        return self._stream(job_id).last_tau

    def begin_job(self, job: Job, predictor, tau_stra: Optional[float] = None) -> str:
        """Register ``job`` with its fresh ``predictor`` and warm up its
        stream; returns the job id.

        The payload is validated first (:meth:`Job.validate`: finite
        features, positive finite durations, matching lengths) so a job
        damaged since construction is rejected before any model sees it.
        """
        if job.job_id in self._streams:
            raise ValueError(f"job {job.job_id!r} is already being scored.")
        job.validate()
        stream = self.simulator.stream(
            job, predictor, tau_stra=tau_stra, clock=self.clock
        )
        self._streams[job.job_id] = stream
        self._seq[job.job_id] = 0
        return job.job_id

    def checkpoint_grid(self, job_id: str) -> np.ndarray:
        """The registered job's τ_run_t grid (for event-driven replays)."""
        return self._stream(job_id).checkpoints

    def score_checkpoint(self, job_id: str, tau: float) -> ScoreEvent:
        """Advance ``job_id`` to checkpoint ``tau`` and emit its flags."""
        stream = self._stream(job_id)
        if not np.isfinite(tau):
            raise ValueError(f"job {job_id!r}: checkpoint time {tau!r} is not finite.")
        t0 = self.clock()
        out = stream.step(tau, budget=self.budget)
        latency = self.clock() - t0
        seq = self._seq[job_id]
        self._seq[job_id] = seq + 1
        if out.scored:
            self.scored_events += 1
            self.checkpoint_stats.record(latency)
            self.score_stats.record(out.score_seconds)
            self.update_mode_counts[out.update_mode] += 1
            if not out.updated:
                self.degraded_events += 1
        return ScoreEvent(
            job_id=job_id,
            tau=out.tau,
            seq=seq,
            newly_flagged=out.newly_flagged,
            n_running=out.n_running,
            n_finished=out.n_finished,
            scored=out.scored,
            degraded=out.scored and not out.updated,
            update_mode=out.update_mode,
            latency_s=latency,
            score_s=out.score_seconds,
        )

    def finish_job(self, job_id: str) -> ReplayResult:
        """Close the job's stream and return its accumulated result."""
        stream = self._stream(job_id)
        del self._streams[job_id]
        del self._seq[job_id]
        return stream.result()

    def discard(self, job_id: str) -> bool:
        """Drop a job's stream without producing a result (crash cleanup)."""
        existed = job_id in self._streams
        self._streams.pop(job_id, None)
        self._seq.pop(job_id, None)
        return existed

    def stats_dict(self) -> Dict:
        """Aggregate engine statistics for reporting/benchmarks."""
        return {
            "scored_events": self.scored_events,
            "degraded_events": self.degraded_events,
            "degraded_fraction": (
                self.degraded_events / self.scored_events if self.scored_events else 0.0
            ),
            "update_modes": dict(self.update_mode_counts),
            "checkpoint_latency": self.checkpoint_stats.as_dict(),
            "score_latency": self.score_stats.as_dict(),
        }

    # ------------------------------------------------------------------
    def _stream(self, job_id: str) -> ReplayStream:
        try:
            return self._streams[job_id]
        except KeyError:
            raise KeyError(
                f"job {job_id!r} has no open stream; call begin_job first."
            ) from None
