"""Close the loop: act on NURD's flags and measure the systems win.

Replays a Google-style trace with NURD, then feeds the per-checkpoint flag
decisions to the closed-loop mitigation simulator under each policy —
speculative re-execution and kill-restart — against a pool of eight spare
machines per job. Prints job-completion-time and p99 tail reductions,
bracketed by a perfect-information oracle and a prediction-free random
flagger spending the same flag budget.

Run:  PYTHONPATH=src python examples/closed_loop.py
"""

from repro.core.nurd import NurdPredictor
from repro.sim.mitigation import (
    POLICIES,
    ClosedLoopSimulator,
    MitigationConfig,
    control_reports,
)
from repro.sim.replay import ReplaySimulator
from repro.traces.google import GoogleTraceGenerator


def main() -> None:
    # 1. Replay: NURD scores each job checkpoint by checkpoint.
    trace = GoogleTraceGenerator(
        n_jobs=4, task_range=(120, 180), random_state=42
    ).generate()
    sim = ReplaySimulator(n_checkpoints=10, random_state=0)
    replays = [sim.run(job, NurdPredictor(random_state=0)) for job in trace]

    # 2. Mitigate: every flag triggers an action against the spare pool.
    for policy in POLICIES:
        cfg = MitigationConfig(policy=policy, random_state=0)
        report = ClosedLoopSimulator(cfg).run_many(replays)
        tail = report.tail_latency(99.0)
        print(
            f"{policy:14s} JCT -{report.mean_jct_reduction_pct:5.1f}%  "
            f"p99 {tail['baseline']:7.1f}s -> {tail['mitigated']:7.1f}s"
        )

    # 3. Controls: how much of the win is prediction quality?
    cfg = MitigationConfig(policy="speculative", random_state=0)
    nurd = ClosedLoopSimulator(cfg).run_many(replays)
    controls = control_reports(replays, cfg)
    print("\nspeculative, 8 spares (JCT reduction):")
    print(f"  random flagger {controls['Random'].mean_jct_reduction_pct:5.1f}%")
    print(f"  NURD           {nurd.mean_jct_reduction_pct:5.1f}%")
    print(f"  oracle         {controls['Oracle'].mean_jct_reduction_pct:5.1f}%")


if __name__ == "__main__":
    main()
