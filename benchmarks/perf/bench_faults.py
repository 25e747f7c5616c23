"""Fault-matrix benchmark: inject faults, gate recovery and degradation.

Writes ``BENCH_faults.json`` next to this file so successive PRs can track
the trajectory. Run with::

    PYTHONPATH=src python benchmarks/perf/bench_faults.py

Every arm drives the scorer service (or the eval harness) over both trace
families with a seeded :class:`repro.faults.FaultPlan`, then checks the
contract the hardening layer promises:

- **fault_free_parity** — with quarantine, snapshotting and retry policies
  all enabled but no faults injected, the service's delivered events and
  per-job results are bit-identical to the bare engine's, and the engine's
  wall-clock time over the service's is recorded, higher is better
  (``overhead.engine_over_service``).
- **crash_recovery_parity** — injected shard crashes (``ServiceChaos``) and
  a transient fit error are recovered via snapshot restore + replay; the
  delivered stream and results must stay bit-identical to the fault-free run.
- **corruption** — dropped / duplicated / delayed / corrupted checkpoints
  and poisoned job payloads (``RequestInjector``): the dead-letter queue
  must hold *exactly* the injected reject set, the run must never crash,
  exactly-once flag accounting must match the engine's masks, and the mean
  F1 must degrade gracefully (>= ``F1_FLOOR_FACTOR`` x fault-free F1).
- **sink_outage** — an emit-sink outage window is ridden out by the retry
  policy: every event delivered exactly once, in order, nothing
  dead-lettered.
- **harness_retry** — eval-harness work units crash on first attempts;
  with retries the serial and pool fan-outs return bit-identical, ordered
  results, and with too few retries the failure surfaces.
- **determinism** — the corruption arm runs twice and must be bit-identical
  (every fault decision derives from the plan seed).

``--smoke`` shrinks the traces for CI freshness; the gate verdicts are
scale-independent and compared exactly by ``check_bench.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.nurd import NurdPredictor
from repro.eval import EvaluationConfig, evaluate_method
from repro.faults import (
    EventFaults,
    FaultPlan,
    InjectedCrash,
    ProcessFaults,
    RetryPolicy,
    collect_flags,
)
from repro.faults.injectors import (
    FlakySink,
    HarnessFaults,
    RequestInjector,
    ServiceChaos,
    flaky_predictor_factory,
)
from repro.serving import (
    BeginJob,
    FinishJob,
    ScoreCheckpoint,
    ScorerService,
    ScoringEngine,
    ServiceConfig,
)
from repro.sim.replay import ReplaySimulator
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.google import GoogleTraceGenerator

#: Tier-1 benchmark trace configuration (mirrors benchmarks/conftest.py).
SEED = 42
N_JOBS = 4
TASK_RANGE = (100, 140)
N_CHECKPOINTS = 8

#: Graceful-degradation floor: mean F1 under event corruption must stay
#: above this fraction of the fault-free mean F1.
F1_FLOOR_FACTOR = 0.6

_FAMILIES = (("google", GoogleTraceGenerator), ("alibaba", AlibabaTraceGenerator))

#: Hardened service configuration shared by every service arm: quarantine,
#: periodic snapshots, supervised restarts and emit retries all enabled.
HARDENED = dict(
    snapshot_every=3,
    quarantine=True,
    restart_policy=RetryPolicy(retries=4, base_delay=0.0, max_delay=0.0),
    emit_policy=RetryPolicy(retries=3, base_delay=0.0, max_delay=0.0),
)

#: Fault plans per arm (event rates sum well below 1 so most checkpoints
#: stay clean and F1 can only degrade gracefully).
CRASH_PLAN = FaultPlan(
    seed=SEED,
    process=ProcessFaults(crash_shard=0, crash_at_event=2, crash_times=2),
)
FIT_ERROR_PLAN = FaultPlan(
    seed=SEED,
    process=ProcessFaults(fit_error_at_update=1, fit_error_times=1),
)
CORRUPTION_PLAN = FaultPlan(
    seed=SEED,
    events=EventFaults(
        drop_rate=0.05,
        duplicate_rate=0.10,
        delay_rate=0.10,
        corrupt_rate=0.10,
        poison_jobs=2,
    ),
)
SINK_PLAN = FaultPlan(
    seed=SEED,
    process=ProcessFaults(
        sink_outage_at=3, sink_outage_events=4, sink_failures_per_event=2
    ),
)
HARNESS_FAULTS = HarnessFaults(crashes={0: 1, 2: 2})


async def _noop_sleep(_delay: float) -> None:
    return None


def _factory():
    return NurdPredictor(random_state=0)


def _simulator(n_checkpoints):
    return ReplaySimulator(n_checkpoints=n_checkpoints, random_state=SEED)


def _requests(sim, trace):
    out = []
    for job in trace:
        out.append(BeginJob(job))
        for tau in sim.checkpoint_grid(job)[1:]:
            out.append(ScoreCheckpoint(job.job_id, float(tau)))
        out.append(FinishJob(job.job_id))
    return out


def _event_key(event):
    return (
        event.job_id,
        int(event.seq),
        float(event.tau),
        tuple(int(i) for i in event.newly_flagged),
    )


def _result_fingerprint(result):
    return (
        result.job_id,
        result.y_flag.tobytes().hex(),
        result.flag_times.tobytes().hex(),
    )


def run_engine(trace, sim):
    """Bare-engine reference pass: events, results, wall seconds."""
    engine = ScoringEngine(_factory, simulator=sim)
    events, results = [], {}
    t0 = time.perf_counter()
    for job in trace:
        engine.begin_job(job)
        for tau in engine.checkpoint_grid(job.job_id):
            events.append(engine.score_checkpoint(job.job_id, float(tau)))
        results[job.job_id] = engine.finish_job(job.job_id)
    return events, results, time.perf_counter() - t0


def run_service(trace, sim, requests=None, chaos=None, emit=None, factory=None):
    """Drive the hardened service over a request stream; returns (svc, secs)."""
    svc = ScorerService(
        factory or _factory,
        simulator=sim,
        config=ServiceConfig(**HARDENED),
        emit=emit,
        chaos=chaos,
        sleep=_noop_sleep,
    )
    if requests is None:
        requests = _requests(sim, trace)

    async def go():
        await svc.start()
        for request in requests:
            await svc.submit(request)
        await svc.drain()
        await svc.stop(raise_on_failure=False)

    t0 = time.perf_counter()
    asyncio.run(go())
    return svc, time.perf_counter() - t0


def _parity(events_a, results_a, events_b, results_b):
    if [_event_key(e) for e in events_a] != [_event_key(e) for e in events_b]:
        return False
    fa = sorted(_result_fingerprint(r) for r in results_a.values())
    fb = sorted(_result_fingerprint(r) for r in results_b.values())
    return fa == fb


def arm_fault_free(traces, sim):
    """Hardened-but-unfaulted service vs bare engine: parity + overhead."""
    ok, engine_s, service_s, f1s = True, 0.0, 0.0, []
    for family, trace in traces.items():
        events, results, es = run_engine(trace, sim)
        svc, ss = run_service(trace, sim)
        engine_s += es
        service_s += ss
        parity = _parity(events, results, svc.events, svc.results)
        ok = ok and parity and not svc.failures and svc.dlq.total == 0
        f1s.extend(r.f1 for r in results.values())
        print(f"fault_free [{family}]: parity={'ok' if parity else 'FAIL'} "
              f"engine {es:.2f}s service {ss:.2f}s")
    ratio = engine_s / service_s if service_s > 0 else 0.0
    return {
        "passed": bool(ok),
        "engine_seconds": round(engine_s, 3),
        "service_seconds": round(service_s, 3),
        "mean_f1": round(float(np.mean(f1s)), 4),
    }, ratio, float(np.mean(f1s))


def arm_crash_recovery(traces, sim):
    """Shard crashes + a transient fit error must recover bit-identically."""
    ok, restarts, replayed = True, 0, 0
    for family, trace in traces.items():
        clean, _ = run_service(trace, sim)
        crashed, _ = run_service(trace, sim, chaos=ServiceChaos(CRASH_PLAN))
        flaky, _ = run_service(
            trace, sim, factory=flaky_predictor_factory(_factory, FIT_ERROR_PLAN)
        )
        for svc in (crashed, flaky):
            parity = _parity(clean.events, clean.results, svc.events, svc.results)
            ok = ok and parity and not svc.failures and svc.restarts > 0
            restarts += svc.restarts
            replayed += svc.replayed_events
        print(f"crash_recovery [{family}]: restarts={crashed.restarts}"
              f"+{flaky.restarts} replayed={crashed.replayed_events}"
              f"+{flaky.replayed_events} -> {'ok' if ok else 'FAIL'}")
    return {
        "passed": bool(ok),
        "restarts": int(restarts),
        "replayed_events": int(replayed),
    }


def run_corruption(traces, sim):
    """One deterministic corruption pass; returns the summary dict."""
    summary = {}
    for family, trace in traces.items():
        injector = RequestInjector(CORRUPTION_PLAN)
        faulted = list(injector.stream(_requests(sim, trace)))
        svc, _ = run_service(trace, sim, requests=faulted)
        n_tasks = {job.job_id: job.n_tasks for job in trace}
        accounts = collect_flags(svc.events, n_tasks)
        masks_ok = all(
            np.array_equal(accounts[jid].y_flag, svc.results[jid].y_flag)
            and np.array_equal(
                accounts[jid].flag_times, svc.results[jid].flag_times
            )
            for jid in svc.results
        )
        summary[family] = {
            "injected": dict(sorted(injector.log.items())),
            "expected_rejects": injector.expected_rejects,
            "dlq": svc.dlq.as_dict(),
            "dlq_identity": bool(svc.dlq.total == injector.expected_rejects),
            "accounting_identity": bool(masks_ok),
            "crashed": bool(svc.failures),
            "mean_f1": round(
                float(np.mean([r.f1 for r in svc.results.values()])), 4
            ),
            "results": sorted(
                _result_fingerprint(r) for r in svc.results.values()
            ),
        }
    return summary


def arm_corruption(traces, sim, clean_f1):
    summary = run_corruption(traces, sim)
    floor = F1_FLOOR_FACTOR * clean_f1
    mean_f1 = float(np.mean([s["mean_f1"] for s in summary.values()]))
    ok = all(
        s["dlq_identity"] and s["accounting_identity"] and not s["crashed"]
        for s in summary.values()
    ) and mean_f1 >= floor
    for family, s in summary.items():
        print(f"corruption [{family}]: dlq={s['dlq']['total']} "
              f"expected={s['expected_rejects']} f1={s['mean_f1']:.3f} "
              f"-> {'ok' if ok else 'FAIL'}")
    return {
        "passed": bool(ok),
        "mean_f1": round(mean_f1, 4),
        "f1_floor": round(floor, 4),
        "families": {
            f: {k: v for k, v in s.items() if k != "results"}
            for f, s in summary.items()
        },
    }, summary


def arm_sink_outage(traces, sim):
    """Emit retries must ride out the sink outage window, exactly once."""
    ok, failures = True, 0
    for family, trace in traces.items():
        delivered = []
        sink = FlakySink(delivered.append, SINK_PLAN)
        svc, _ = run_service(trace, sim, emit=sink)
        per_job = {}
        ordered = True
        for event in delivered:
            last = per_job.get(event.job_id, -1)
            ordered = ordered and event.seq == last + 1
            per_job[event.job_id] = event.seq
        complete = len(delivered) == sim.n_checkpoints * len(trace)
        ok = (
            ok and ordered and complete and sink.failures > 0
            and svc.dlq.total == 0 and not svc.failures
        )
        failures += sink.failures
        print(f"sink_outage [{family}]: {len(delivered)} delivered, "
              f"{sink.failures} injected failures -> {'ok' if ok else 'FAIL'}")
    return {"passed": bool(ok), "sink_failures": int(failures)}


def arm_harness_retry(traces, n_checkpoints):
    """Work-unit retry: bit-identical ordered results, serial and pooled."""
    trace = traces["google"]
    cfg = EvaluationConfig(n_checkpoints=n_checkpoints, random_state=0)
    clean = evaluate_method(trace, "NURD", cfg)
    want = [_result_fingerprint(r) for r in clean.replays]

    serial = evaluate_method(
        trace, "NURD", cfg, retries=2, faults=HARNESS_FAULTS
    )
    pooled = evaluate_method(
        trace, "NURD", cfg, n_workers=2, retries=2, faults=HARNESS_FAULTS
    )
    parity = (
        [_result_fingerprint(r) for r in serial.replays] == want
        and [_result_fingerprint(r) for r in pooled.replays] == want
    )
    try:
        evaluate_method(trace, "NURD", cfg, retries=0, faults=HARNESS_FAULTS)
        surfaced = False
    except InjectedCrash:
        surfaced = True
    ok = parity and surfaced
    print(f"harness_retry: parity={'ok' if parity else 'FAIL'} "
          f"surfaced_without_retries={'ok' if surfaced else 'FAIL'}")
    return {"passed": bool(ok), "parity": bool(parity), "surfaced": surfaced}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small traces for CI freshness",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).parent / "BENCH_faults.json"),
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    if args.smoke:
        n_jobs, task_range, n_checkpoints = 2, (40, 60), 5
    else:
        n_jobs, task_range, n_checkpoints = N_JOBS, TASK_RANGE, N_CHECKPOINTS
    print(f"jobs/family={n_jobs} tasks={task_range} checkpoints={n_checkpoints}")

    sim = _simulator(n_checkpoints)
    traces = {
        family: gen(
            n_jobs=n_jobs, task_range=task_range, random_state=SEED
        ).generate()
        for family, gen in _FAMILIES
    }

    fault_free, overhead_ratio, clean_f1 = arm_fault_free(traces, sim)
    crash = arm_crash_recovery(traces, sim)
    corruption, first_pass = arm_corruption(traces, sim, clean_f1)
    sink = arm_sink_outage(traces, sim)
    harness = arm_harness_retry(traces, n_checkpoints)

    second_pass = run_corruption(traces, sim)
    deterministic = json.dumps(first_pass, sort_keys=True) == json.dumps(
        second_pass, sort_keys=True
    )
    print(f"gate determinism: bit-identical rerun -> "
          f"{'ok' if deterministic else 'FAIL'}")

    gates = {
        "fault_free_parity": fault_free,
        "crash_recovery_parity": crash,
        "corruption": corruption,
        "sink_outage": sink,
        "harness_retry": harness,
        "determinism": {"passed": bool(deterministic)},
    }
    record = {
        "benchmark": "faults",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "smoke": bool(args.smoke),
            "seed": SEED,
            "n_jobs_per_family": n_jobs,
            "task_range": list(task_range),
            "n_checkpoints": n_checkpoints,
            "f1_floor_factor": F1_FLOOR_FACTOR,
            "plans": {
                "crash": {"crash_at_event": 2, "crash_times": 2},
                "fit_error": {"at_update": 1, "times": 1},
                "corruption": {
                    "drop": 0.05, "duplicate": 0.10, "delay": 0.10,
                    "corrupt": 0.10, "poison_jobs": 2,
                },
                "sink": {"outage_at": 3, "events": 4, "failures_per_event": 2},
                "harness": {k: v for k, v in HARNESS_FAULTS.crashes.items()},
            },
        },
        "overhead": {"engine_over_service": round(overhead_ratio, 4)},
        "gates": gates,
    }
    out = Path(args.output)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {out}")

    failed = [name for name, g in gates.items() if not g["passed"]]
    if failed:
        print(f"FAIL: gates violated: {', '.join(failed)}")
        return 1
    print("all fault-matrix gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
