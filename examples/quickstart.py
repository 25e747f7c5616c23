"""Quickstart: predict stragglers online in one job with NURD.

Generates a Google-style job, replays it checkpoint by checkpoint, and
prints NURD's prediction quality and the job-completion-time win from
relaunching the flagged tasks.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import GoogleTraceGenerator, NurdPredictor, ReplaySimulator
from repro.sim import paper_report


def main() -> None:
    # 1. A synthetic Google-style job: 300 tasks, 15 monitored features.
    gen = GoogleTraceGenerator(random_state=7)
    job = gen.generate_job("demo-job", n_tasks=300)
    tau = job.straggler_threshold(90.0)
    print(f"job: {job.n_tasks} tasks, {job.n_features} features")
    print(f"p90 straggler threshold: {tau:.1f}")
    print(f"max latency: {job.latencies.max():.1f}")
    print(f"true stragglers: {int(job.straggler_mask().sum())}")

    # 2. Replay the job online. The simulator reveals finished tasks'
    #    latencies checkpoint by checkpoint; NURD never sees a straggler
    #    label.
    sim = ReplaySimulator(n_checkpoints=10, random_state=0)
    nurd = NurdPredictor(alpha=0.5, eps=0.05, random_state=0)
    result = sim.run(job, nurd)

    regime = "small" if nurd.delta_ > 0 else "large"
    print("\nonline prediction (no positive labels, no latency assumptions):")
    print(f"  rho = {nurd.rho_:.2f}  ->  delta = {nurd.delta_:+.2f}")
    print(f"  ({regime} threshold regime)")
    print(f"  TPR = {result.tpr:.2f}  FPR = {result.fpr:.2f}  F1 = {result.f1:.2f}")

    # 3. Mitigation: relaunch each flagged task on a fresh machine
    #    (Algorithm 2 — unlimited machines).
    outcome = paper_report([result], random_state=0).outcomes[0]
    print("\nscheduling with Algorithm 2 (relaunch on flag):")
    print(f"  baseline JCT : {outcome.baseline_jct:10.1f}")
    print(f"  mitigated JCT: {outcome.mitigated_jct:10.1f}")
    print(f"  reduction    : {outcome.jct_reduction_pct:10.1f}%")
    print(f"  relaunches   : {outcome.n_actions:10d}")

    # 4. Streaming view (paper Fig. 2): F1 of the flags issued so far.
    curve = result.streaming_f1(10)
    print("\nstreaming F1 over normalized time:")
    for frac, f1 in zip(np.linspace(0.1, 1.0, 10), curve):
        print(f"  t={frac:.1f}  F1={f1:.2f}  {'#' * int(40 * f1)}")


if __name__ == "__main__":
    main()
