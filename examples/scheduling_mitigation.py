"""Straggler mitigation under a constrained cluster (paper §5, Algorithm 3).

Sweeps the machine count and compares the job-completion-time win from
NURD-driven relaunches with the unlimited-machines value (paper Figs. 6–9).
A relaunch needs a free machine, and each unflagged task frees its machine
when it finishes. NURD flags after the warmup, when many tasks are done,
so even small clusters usually reach the unlimited value.

Run:  python examples/scheduling_mitigation.py
"""

from repro import GoogleTraceGenerator, NurdPredictor, ReplaySimulator
from repro.sim import jct_reduction, paper_report

MACHINES = [50, 100, 200, 400, 800]


def main() -> None:
    gen = GoogleTraceGenerator(n_jobs=4, task_range=(250, 400), random_state=11)
    trace = gen.generate()
    sim = ReplaySimulator(n_checkpoints=10, random_state=0)

    print(f"replaying {len(trace)} jobs with NURD...")
    replays = [sim.run(job, NurdPredictor(random_state=0)) for job in trace]

    print("\nmachines  avg JCT reduction")
    for m in MACHINES:
        red = jct_reduction(replays, m, random_state=1)
        bar = "#" * max(0, int(red))
        print(f"{m:8d}  {red:6.1f}%  {bar}")

    unlimited = jct_reduction(replays, None, random_state=1)
    print(f"   inf    {unlimited:6.1f}%  (Algorithm 2)")

    print("\nPer-job detail at 200 machines:")
    for out in paper_report(replays, 200, random_state=1).outcomes:
        jct = f"{out.baseline_jct:9.1f} -> {out.mitigated_jct:9.1f}"
        pct = f"{out.jct_reduction_pct:5.1f}%, {out.n_actions} relaunches"
        print(f"  {out.job_id}: {jct} ({pct})")


if __name__ == "__main__":
    main()
