"""Closed-loop mitigation: act on straggler flags, measure cluster-level wins.

The replay simulator and eval harness score predictors with F1 — a proxy.
The paper's actual motivation is tail-latency reduction, so this module
closes the loop: per-checkpoint flag decisions (a
:class:`~repro.sim.replay.ReplayResult`, from a replay or from a scoring
service's ``results``) trigger a mitigation policy against a
finite :class:`~repro.sim.cluster.MachinePool`, and the report measures
what operators care about: job completion time and p99/p99.9 task
latency, per method, against a no-mitigation baseline.

Two policies:

- ``speculative`` — speculative re-execution: launch a copy of the flagged
  task on a spare machine and keep the earlier finisher. A false positive
  never hurts its own task (the original keeps running) but occupies a
  spare another task may need.
- ``kill_restart`` — terminate the flagged task and relaunch it from
  scratch on a spare; the implicated original machine is retired. False
  positives carry the paper's full restart cost: the relaunch may well
  finish *later* than the original would have.

An action starts at its flag time, or when a spare frees up if none is
free then; :meth:`ClosedLoopSimulator.run` gives each job
``ClosedLoopSimulator._SPARES`` = 8 spares at time 0. A flag at or after
its task's completion is counted late and not acted on.

Relaunch execution times follow the paper's §7.3 rule — resampled from the
job's empirical latency distribution — but are drawn *per task* from a
seed derived of ``(random_state, job_index)`` only, so every method, policy
and repeated run sees bit-identical draws and arm deltas measure decision
quality, not resampling luck.

The paper's own schedulers (§5, Figs. 4–9) are kill-restart runs of the
same loop over a per-job pool, computed by :func:`paper_report` (and
averaged by :func:`jct_reduction`):

- Algorithm 2 (unlimited machines): one spare per task from time 0, so
  every flagged task is relaunched at its flag time.
- Algorithm 3 (an ``m``-machine cluster): ``max(0, m - n)`` spares at time
  0, and each *unflagged* task's machine joins them when the task
  finishes; relaunches return their machine on completion. A flagged
  task's machine is retired as suspect, and a flag that finds no free
  machine waits for the earliest one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.sim.cluster import MachinePool
from repro.sim.replay import ReplayResult

#: Mitigation policies.
POLICIES = ("speculative", "kill_restart")

#: Method names of the synthetic control arms.
ORACLE = "Oracle"
RANDOM_FLAGGER = "Random"


@dataclass
class MitigationConfig:
    """Run-level values of the closed loop (see EXPERIMENTS.md, "Closed-loop
    mitigation").

    Parameters
    ----------
    policy : {'speculative', 'kill_restart'}
        What a flag triggers.
    random_state : int
        Seed for the per-task relaunch-latency draws; runs with the same
        seed are bit-identical. Python or NumPy integers only.
    """

    policy: str = "speculative"
    random_state: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}.")
        seed = self.random_state
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ValueError(f"random_state must be an integer, got {seed!r}.")


@dataclass
class MitigationOutcome:
    """What the closed loop did to one job."""

    job_id: str
    policy: str
    baseline_completions: np.ndarray  # start + latency, untouched
    mitigated_completions: np.ndarray  # after mitigation actions
    start_times: np.ndarray
    n_flagged: int = 0
    n_actions: int = 0  # actions that actually took effect
    n_late: int = 0  # flag acted on after the task already finished
    n_denied: int = 0  # no spare machine available
    n_helped: int = 0  # task finished earlier than baseline
    n_hurt: int = 0  # task finished later (kill-restart FP cost)

    @property
    def baseline_jct(self) -> float:
        return float(self.baseline_completions.max())

    @property
    def mitigated_jct(self) -> float:
        return float(self.mitigated_completions.max())

    @property
    def jct_reduction_pct(self) -> float:
        """Percent reduction in job completion time (higher is better)."""
        if self.baseline_jct <= 0:
            return 0.0
        return 100.0 * (self.baseline_jct - self.mitigated_jct) / self.baseline_jct

    @property
    def baseline_task_latencies(self) -> np.ndarray:
        """User-visible task latency: completion minus original start."""
        return self.baseline_completions - self.start_times

    @property
    def mitigated_task_latencies(self) -> np.ndarray:
        return self.mitigated_completions - self.start_times


def _percentile_delta_pct(
    baseline: np.ndarray, mitigated: np.ndarray, q: float
) -> Dict[str, float]:
    base = float(np.percentile(baseline, q))
    mit = float(np.percentile(mitigated, q))
    delta = 100.0 * (base - mit) / base if base > 0 else 0.0
    return {"baseline": base, "mitigated": mit, "reduction_pct": delta}


@dataclass
class ClosedLoopReport:
    """Aggregate closed-loop result over a set of jobs (one method arm)."""

    policy: str
    outcomes: List[MitigationOutcome] = field(default_factory=list)

    @property
    def mean_jct_reduction_pct(self) -> float:
        if not self.outcomes:
            raise ValueError("no mitigation outcomes collected.")
        return float(np.mean([o.jct_reduction_pct for o in self.outcomes]))

    def tail_latency(self, q: float) -> Dict[str, float]:
        """Task-latency percentile ``q`` across all jobs' tasks."""
        if not self.outcomes:
            raise ValueError("no mitigation outcomes collected.")
        base = np.concatenate([o.baseline_task_latencies for o in self.outcomes])
        mit = np.concatenate([o.mitigated_task_latencies for o in self.outcomes])
        return _percentile_delta_pct(base, mit, q)


class ClosedLoopSimulator:
    """Applies a mitigation policy to per-checkpoint flag decisions.

    One simulator instance is reusable across jobs, methods and repeated
    runs: all randomness derives from ``(config.random_state, job_index)``,
    never from call order, so outcomes are bit-reproducible and directly
    comparable across method arms.
    """

    #: Spare machines :meth:`run` gives each job at time 0.
    _SPARES = 8

    def __init__(self, config: Optional[MitigationConfig] = None):
        self.config = config or MitigationConfig()

    # ------------------------------------------------------------------
    def relaunch_latencies(self, result: ReplayResult, job_index: int) -> np.ndarray:
        """Per-task relaunch execution times (paper §7.3 empirical resample).

        Drawn once per ``(random_state, job_index)`` — independent of the
        method that produced ``result`` and of which tasks end up flagged —
        so arm comparisons are free of resampling noise.
        """
        y = result.latencies
        rng = np.random.default_rng(
            [int(self.config.random_state), 0x5EED, int(job_index)]
        )
        return y[rng.integers(y.shape[0], size=y.shape[0])]

    def run(self, result: ReplayResult, job_index: int = 0) -> MitigationOutcome:
        """Apply the configured policy to one job's flag decisions."""
        return self._run(result, job_index, MachinePool(self._SPARES))

    def _run(
        self, result: ReplayResult, job_index: int, pool: MachinePool
    ) -> MitigationOutcome:
        """The closed loop over a caller-supplied pool (see :func:`paper_report`)."""
        cfg = self.config
        y = result.latencies
        starts = result.start_times
        baseline = starts + y
        completion = baseline.copy()
        relaunch = self.relaunch_latencies(result, job_index)
        out = MitigationOutcome(
            job_id=result.job_id,
            policy=cfg.policy,
            baseline_completions=baseline,
            mitigated_completions=completion,
            start_times=starts,
        )

        flagged_idx = np.nonzero(np.isfinite(result.flag_times))[0]
        out.n_flagged = int(flagged_idx.shape[0])
        # Serve flags in (flag time, task index) order — deterministic and
        # causally faithful: earlier flags compete for spares first.
        order = flagged_idx[np.lexsort((flagged_idx, result.flag_times[flagged_idx]))]
        for i in order:
            t_act = float(result.flag_times[i])
            if t_act >= completion[i]:
                out.n_late += 1
                continue
            slot = pool.acquire(t_act)
            if slot is None:
                out.n_denied += 1
                continue
            new = slot + relaunch[i]
            if cfg.policy == "speculative":
                # The losing execution is killed the moment the race
                # resolves, freeing the spare.
                new = min(float(completion[i]), new)
            # Under kill_restart the original machine is retired as suspect;
            # the spare returns when the relaunch completes, even if that is
            # later than the original would have finished (FP cost).
            pool.release(new)
            completion[i] = new
            out.n_actions += 1
            if completion[i] < baseline[i]:
                out.n_helped += 1
            elif completion[i] > baseline[i]:
                out.n_hurt += 1
        return out

    def run_many(self, results: Iterable[ReplayResult]) -> ClosedLoopReport:
        """Close the loop over every job of one method arm."""
        report = ClosedLoopReport(policy=self.config.policy)
        for i, result in enumerate(results):
            report.outcomes.append(self.run(result, job_index=i))
        if not report.outcomes:
            raise ValueError("no replay results supplied.")
        return report


def paper_report(
    results: Iterable[ReplayResult],
    n_machines: Optional[int] = None,
    random_state: int = 0,
) -> ClosedLoopReport:
    """Paper Algorithm 2 (``n_machines=None``) or Algorithm 3 on an
    ``n_machines`` cluster: ``kill_restart`` runs of the closed loop over
    one fresh pool per job (see the module docstring)."""
    if n_machines is not None and n_machines < 1:
        raise ValueError("n_machines must be >= 1.")
    sim = ClosedLoopSimulator(
        MitigationConfig(policy="kill_restart", random_state=random_state)
    )
    report = ClosedLoopReport(policy="kill_restart")
    for i, result in enumerate(results):
        n = result.latencies.shape[0]
        if n_machines is None:
            pool = MachinePool(n)
        else:
            pool = MachinePool(max(0, n_machines - n))
            for when in result.completion_times[~np.isfinite(result.flag_times)]:
                pool.release(when)
        report.outcomes.append(sim._run(result, i, pool))
    if not report.outcomes:
        raise ValueError("no replay results supplied.")
    return report


def jct_reduction(
    results: Iterable[ReplayResult],
    n_machines: Optional[int] = None,
    random_state: int = 0,
) -> float:
    """Mean percent JCT reduction under paper Algorithm 2 or 3 (Figs. 4–9)."""
    return paper_report(results, n_machines, random_state).mean_jct_reduction_pct


# ---------------------------------------------------------------------------
# Control arms
# ---------------------------------------------------------------------------


def _running_checkpoint_mask(result: ReplayResult) -> np.ndarray:
    """(n_tasks, n_checkpoints) mask: task i is running at checkpoint t."""
    taus = result.checkpoints[None, :]
    starts = result.start_times[:, None]
    completion = (result.start_times + result.latencies)[:, None]
    return (starts <= taus) & (taus < completion)


def oracle_result(result: ReplayResult) -> ReplayResult:
    """Perfect-information arm: every true straggler flagged at the first
    checkpoint where it is observable (running), no false positives.

    Upper-bounds any predictor driven through the same checkpoint grid —
    no flag can be raised earlier than a checkpoint, and acting on
    non-stragglers never improves JCT or the straggler-dominated tail.
    """
    running = _running_checkpoint_mask(result)
    flag_times = np.full(result.latencies.shape[0], np.inf)
    y_flag = np.zeros(result.latencies.shape[0], dtype=bool)
    for i in np.nonzero(result.y_true)[0]:
        hits = np.nonzero(running[i])[0]
        if hits.shape[0]:
            y_flag[i] = True
            flag_times[i] = result.checkpoints[hits[0]]
    return ReplayResult(
        job_id=result.job_id,
        tau_stra=result.tau_stra,
        y_true=result.y_true.copy(),
        y_flag=y_flag,
        flag_times=flag_times,
        checkpoints=result.checkpoints,
        latencies=result.latencies.copy(),
        start_times=result.start_times.copy(),
        meta={"arm": ORACLE},
    )


def random_flagger_result(
    result: ReplayResult,
    random_state: int = 0,
    job_index: int = 0,
) -> ReplayResult:
    """Prediction-free control: flag tasks at random, at random checkpoints.

    Each task is flagged with probability equal to the job's true straggler
    fraction, so the control spends the same flag budget as a
    well-calibrated predictor, at a uniformly chosen checkpoint among those
    where it is running. Any mitigation win a real method reports must
    clear this arm to mean anything.
    """
    n = result.latencies.shape[0]
    rate = float(np.mean(result.y_true))
    rng = np.random.default_rng([int(random_state), 0xD1CE, int(job_index)])
    running = _running_checkpoint_mask(result)
    picked = rng.random(n) < rate
    flag_times = np.full(n, np.inf)
    y_flag = np.zeros(n, dtype=bool)
    for i in np.nonzero(picked)[0]:
        hits = np.nonzero(running[i])[0]
        if hits.shape[0]:
            y_flag[i] = True
            choice = hits[int(rng.integers(hits.shape[0]))]
            flag_times[i] = result.checkpoints[choice]
    return ReplayResult(
        job_id=result.job_id,
        tau_stra=result.tau_stra,
        y_true=result.y_true.copy(),
        y_flag=y_flag,
        flag_times=flag_times,
        checkpoints=result.checkpoints,
        latencies=result.latencies.copy(),
        start_times=result.start_times.copy(),
        meta={"arm": RANDOM_FLAGGER, "rate": rate},
    )


def control_reports(
    reference: Sequence[ReplayResult],
    config: Optional[MitigationConfig] = None,
) -> Dict[str, ClosedLoopReport]:
    """Oracle and random-flagger closed-loop reports for a set of replays.

    ``reference`` may come from any method: the grid, latencies and ground
    truth it carries are method-independent (all methods share the job's
    checkpoint plan), so the controls bracket every method evaluated on the
    same trace.
    """
    config = config or MitigationConfig()
    sim = ClosedLoopSimulator(config)
    oracle = [oracle_result(r) for r in reference]
    rand = [
        random_flagger_result(r, random_state=config.random_state, job_index=i)
        for i, r in enumerate(reference)
    ]
    return {
        ORACLE: sim.run_many(oracle),
        RANDOM_FLAGGER: sim.run_many(rand),
    }
