"""Serving benchmark: unbudgeted replay vs. the budgeted streaming scorer.

Writes ``BENCH_serving.json`` next to this file so successive PRs can track
the performance trajectory. Run with::

    PYTHONPATH=src python benchmarks/perf/bench_serving.py

Four arms, all replaying NURD over the tier-1 benchmark traces (6 jobs per
family, tasks 120-180, seed 42 — the same configuration as
``benchmarks/conftest.py``):

- **batch** — ``ReplaySimulator.run``: the checkpoint stream over a fresh
  ``CheckpointPlan``, with a full predictor refit at every checkpoint.
- **incremental** — ``ReplaySimulator.run_incremental`` with
  ``budget=None``: the same stream through the budget-aware entry point,
  bit-identical flags to batch (the parity suite enforces this; the
  benchmark re-checks and reports it).
- **serving** — the :class:`~repro.serving.engine.ScoringEngine` operating
  configuration: checkpoint streams + warm propensity continuation + a
  per-checkpoint latency budget that degrades to cached predictor state
  when the projected update cost would blow the budget. This is the arm the
  ≥2x checkpoints/sec acceptance gate applies to; its flag agreement vs.
  batch is reported alongside so the accuracy cost of degradation is never
  silent.
- **service** — the asyncio :class:`~repro.serving.service.ScorerService`
  end-to-end (ingest queue → score → emit, 2 worker shards), measuring
  sustained event throughput including queueing.

Every arm reports checkpoints/sec; the engine arms also report p50/p99
score latency from the engine's latency reservoir. ``--smoke`` shrinks the
traces for CI freshness.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.nurd import NurdPredictor
from repro.serving import ScorerService, ScoringEngine, ServiceConfig
from repro.sim.replay import ReplaySimulator
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.google import GoogleTraceGenerator

#: Tier-1 benchmark trace configuration (mirrors benchmarks/conftest.py).
N_JOBS = 6
TASK_RANGE = (120, 180)
SEED = 42
N_CHECKPOINTS = 10

#: Serving-arm knobs (documented in EXPERIMENTS.md). The budget is set to a
#: fraction of the batch arm's measured mean checkpoint cost, so the gate is
#: self-calibrating across machines.
BUDGET_FRACTION = 0.35
QUEUE_DEPTH = 64
SERVICE_WORKERS = 2

_FAMILIES = (("google", GoogleTraceGenerator), ("alibaba", AlibabaTraceGenerator))


def _traces(n_jobs: int, task_range):
    return [
        (name, gen(n_jobs=n_jobs, task_range=task_range, random_state=SEED).generate())
        for name, gen in _FAMILIES
    ]


def _predictor(i: int, warm_propensity: bool = False) -> NurdPredictor:
    return NurdPredictor(random_state=i, warm_propensity=warm_propensity)


def _flag_agreement(results_a, results_b) -> float:
    same = total = 0
    for a, b in zip(results_a, results_b):
        same += int(np.sum(a.y_flag == b.y_flag))
        total += a.y_flag.shape[0]
    return same / total if total else 1.0


def _mean_f1(results) -> float:
    return float(np.mean([r.f1 for r in results]))


def bench_batch(traces, sim):
    results, n_ckpt = [], 0
    t0 = time.perf_counter()
    for _, trace in traces:
        for i, job in enumerate(trace):
            res = sim.run(job, _predictor(i))
            results.append(res)
            n_ckpt += res.checkpoints.shape[0]
    elapsed = time.perf_counter() - t0
    return results, n_ckpt, elapsed


def bench_incremental(traces, sim):
    results, n_ckpt = [], 0
    t0 = time.perf_counter()
    for _, trace in traces:
        for i, job in enumerate(trace):
            res = sim.run_incremental(job, _predictor(i))
            results.append(res)
            n_ckpt += res.checkpoints.shape[0]
    elapsed = time.perf_counter() - t0
    return results, n_ckpt, elapsed


def bench_serving(traces, sim, budget):
    """Engine arm: budgeted incremental scoring with warm propensity."""
    engine = ScoringEngine(
        lambda: _predictor(bench_serving._i, warm_propensity=True),
        simulator=sim,
        budget=budget,
    )
    results, n_ckpt = [], 0
    t0 = time.perf_counter()
    for _, trace in traces:
        for i, job in enumerate(trace):
            bench_serving._i = i
            res = engine.run_job(job)
            results.append(res)
            n_ckpt += res.checkpoints.shape[0]
    elapsed = time.perf_counter() - t0
    return results, n_ckpt, elapsed, engine


def bench_service(traces, sim, budget):
    """Async service arm: sustained end-to-end event throughput."""

    async def run():
        out = []
        for _, trace in traces:
            # One fresh service per trace family so per-job seeds line up
            # with the other arms.
            idx = {job.job_id: i for i, job in enumerate(trace)}
            svc = ScorerService(
                lambda: _predictor(bench_service._i, warm_propensity=True),
                simulator=sim,
                config=ServiceConfig(
                    n_workers=SERVICE_WORKERS,
                    queue_depth=QUEUE_DEPTH,
                    budget=budget,
                ),
            )
            await svc.start()
            for job in trace:
                bench_service._i = idx[job.job_id]
                await svc.replay_job(job)
            await svc.stop()
            out.append(svc)
        return out

    t0 = time.perf_counter()
    services = asyncio.run(run())
    elapsed = time.perf_counter() - t0
    n_events = sum(s.engine.scored_events for s in services)
    n_ckpt = sum(len(e.checkpoints) for s in services for e in s.results.values())
    return services, n_ckpt, n_events, elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small traces for CI freshness"
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).parent / "BENCH_serving.json"),
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    n_jobs = 2 if args.smoke else N_JOBS
    task_range = (60, 90) if args.smoke else TASK_RANGE
    traces = _traces(n_jobs, task_range)
    sim = ReplaySimulator(n_checkpoints=N_CHECKPOINTS, random_state=0)

    print(f"jobs/family={n_jobs} tasks={task_range} checkpoints={N_CHECKPOINTS}")

    batch_res, n_ckpt, batch_s = bench_batch(traces, sim)
    batch_cps = n_ckpt / batch_s
    print(f"batch       : {n_ckpt} checkpoints in {batch_s:.2f}s = {batch_cps:.1f} ckpt/s")

    inc_res, _, inc_s = bench_incremental(traces, sim)
    inc_cps = n_ckpt / inc_s
    parity = all(
        np.array_equal(a.y_flag, b.y_flag)
        and np.array_equal(a.flag_times, b.flag_times)
        for a, b in zip(batch_res, inc_res)
    )
    print(f"incremental : {inc_s:.2f}s = {inc_cps:.1f} ckpt/s  bit-parity={parity}")

    budget = BUDGET_FRACTION * (batch_s / n_ckpt)
    srv_res, _, srv_s, engine = bench_serving(traces, sim, budget)
    srv_cps = n_ckpt / srv_s
    agreement = _flag_agreement(batch_res, srv_res)
    stats = engine.stats_dict()
    print(
        f"serving     : {srv_s:.2f}s = {srv_cps:.1f} ckpt/s "
        f"({srv_cps / batch_cps:.2f}x, budget={budget * 1e3:.1f}ms, "
        f"degraded={stats['degraded_fraction']:.0%}, "
        f"flag-agreement={agreement:.3f}, "
        f"F1 {_mean_f1(batch_res):.3f}->{_mean_f1(srv_res):.3f}, "
        f"p99 score={stats['score_latency']['p99_s'] * 1e3:.2f}ms)"
    )

    services, _, n_events, svc_s = bench_service(traces, sim, budget)
    svc_cps = n_ckpt / svc_s
    svc_score_p99 = max(s.engine.score_stats.p99 for s in services)
    print(
        f"service     : {svc_s:.2f}s = {svc_cps:.1f} ckpt/s end-to-end "
        f"({n_events} scored events, p99 score={svc_score_p99 * 1e3:.2f}ms)"
    )

    record = {
        "config": {
            "n_jobs_per_family": n_jobs,
            "task_range": list(task_range),
            "n_checkpoints": N_CHECKPOINTS,
            "seed": SEED,
            "budget_fraction": BUDGET_FRACTION,
            "budget_s": budget,
            "queue_depth": QUEUE_DEPTH,
            "service_workers": SERVICE_WORKERS,
            "smoke": args.smoke,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "batch": {
            "seconds": batch_s,
            "checkpoints_per_sec": batch_cps,
            "mean_f1": _mean_f1(batch_res),
        },
        "incremental": {
            "seconds": inc_s,
            "checkpoints_per_sec": inc_cps,
            "speedup_vs_batch": inc_cps / batch_cps,
            "bit_parity_with_batch": bool(parity),
            "mean_f1": _mean_f1(inc_res),
        },
        "serving_budgeted": {
            "seconds": srv_s,
            "checkpoints_per_sec": srv_cps,
            "speedup_vs_batch": srv_cps / batch_cps,
            "flag_agreement_vs_batch": agreement,
            "mean_f1": _mean_f1(srv_res),
            "degraded_fraction": stats["degraded_fraction"],
            "update_modes": stats["update_modes"],
            "checkpoint_latency": stats["checkpoint_latency"],
            "score_latency": stats["score_latency"],
        },
        "service_async": {
            "seconds": svc_s,
            "checkpoints_per_sec": svc_cps,
            "scored_events": n_events,
            "p99_score_latency_s": svc_score_p99,
        },
        "n_checkpoints_total": n_ckpt,
    }
    out = Path(args.output)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")

    if not parity:
        raise SystemExit("incremental path lost bit-parity with batch")


if __name__ == "__main__":
    main()
