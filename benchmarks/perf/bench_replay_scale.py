"""Paper-scale replay benchmark: serial vs. shared-store fan-out.

Writes ``BENCH_replay_scale.json`` next to this file so successive PRs can
track the performance trajectory. Run with::

    PYTHONPATH=src python benchmarks/perf/bench_replay_scale.py

The workload is a 1000-job Google-style trace (tasks 100-400, seed 42 —
the paper's §6 filtered-trace scale) replayed through ``evaluate_all``
under two arms:

- **serial** — one process reading jobs straight from the memory-mapped
  :class:`~repro.traces.io.TraceStore`;
- **shared_store** — the shared-memory fan-out: workers attach once to the
  store in their initializer and work units carry only job indices.

Each arm runs in a fresh subprocess (this script re-invokes itself with
``--arm``) so ``ru_maxrss`` — a lifetime high-water mark — measures that
arm alone; the reported peak adds ``RUSAGE_CHILDREN`` so pool workers
count. Every arm digests ``y_flag``/``flag_times`` for the first
``parity_jobs`` jobs of every method, and the parent fails (exit 1) on any
bitwise mismatch against the serial arm — parallel replay must be
bit-identical, not approximately right. The throughput gate (shared-store
``>= 3x`` serial jobs/sec at 8 workers) only arms when the host actually
has the cores; on smaller hosts it is recorded as skipped with the reason,
while the parity gate always applies. ``--smoke`` runs a scaled-down pass
(12 jobs, 2 workers) for CI freshness.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parents[2]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.eval import EvaluationConfig, evaluate_all  # noqa: E402
from repro.traces.google import GoogleTraceGenerator  # noqa: E402
from repro.traces.io import TraceStore, save_trace_npz  # noqa: E402

SEED = 42
RANDOM_STATE = 0
SPEEDUP_GATE = 3.0
ARMS = ("serial", "shared_store")

FULL = {
    "n_jobs": 1000,
    "task_range": (100, 400),
    "methods": ("NURD", "KNN"),
    "n_checkpoints": 10,
    "workers": 8,
    "parity_jobs": 8,
}
SMOKE = {
    "n_jobs": 12,
    "task_range": (60, 90),
    "methods": ("NURD",),
    "n_checkpoints": 5,
    "workers": 2,
    "parity_jobs": 4,
}


def _digest(result) -> str:
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(result.y_flag.tobytes())
    h.update(result.flag_times.tobytes())
    return h.hexdigest()


def run_arm(args) -> None:
    """Execute one benchmark arm and print its measurements as JSON."""
    methods = args.methods.split(",")
    cfg = EvaluationConfig(
        n_checkpoints=args.n_checkpoints, random_state=RANDOM_STATE
    )
    store = TraceStore(args.store)
    n_jobs, n_tasks = store.n_jobs, store.n_tasks
    n_workers = args.workers if args.arm == "shared_store" else None

    t0 = time.perf_counter()
    results = evaluate_all(store, methods, cfg, n_workers=n_workers)
    elapsed = time.perf_counter() - t0

    parity = {}
    for method in methods:
        for replay in results[method].replays[: args.parity_jobs]:
            parity[f"{method}:{replay.job_id}"] = _digest(replay)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    n_replays = n_jobs * len(methods)
    print(
        json.dumps(
            {
                "arm": args.arm,
                "seconds": elapsed,
                "n_jobs": n_jobs,
                "n_tasks": n_tasks,
                "n_replays": n_replays,
                "jobs_per_sec": n_jobs / elapsed,
                "replays_per_sec": n_replays / elapsed,
                "rss_self_mb": rss_self,
                "rss_children_mb": rss_children,
                "peak_rss_mb": rss_self + rss_children,
                "f1": {m: results[m].f1 for m in methods},
                "parity": parity,
            }
        )
    )


def _spawn_arm(arm: str, store: Path, scale: dict, workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--arm", arm,
        "--store", str(store),
        "--methods", ",".join(scale["methods"]),
        "--n-checkpoints", str(scale["n_checkpoints"]),
        "--workers", str(workers),
        "--parity-jobs", str(scale["parity_jobs"]),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"arm {arm!r} failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="scaled-down CI pass")
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--n-jobs", type=int, default=None, help="override trace size")
    parser.add_argument("--workers", type=int, default=None)
    # Internal: re-invocation for one isolated arm.
    parser.add_argument("--arm", choices=ARMS, help=argparse.SUPPRESS)
    parser.add_argument("--store", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--methods", help=argparse.SUPPRESS)
    parser.add_argument("--n-checkpoints", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--parity-jobs", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.arm:
        run_arm(args)
        return 0

    scale = dict(SMOKE if args.smoke else FULL)
    if args.n_jobs:
        scale["n_jobs"] = args.n_jobs
    workers = args.workers or scale["workers"]
    out_path = args.output or Path(__file__).with_name("BENCH_replay_scale.json")

    with tempfile.TemporaryDirectory(prefix="bench-replay-") as tmp:
        store_path = Path(tmp) / "trace.npz"
        gen = GoogleTraceGenerator(
            n_jobs=scale["n_jobs"],
            task_range=tuple(scale["task_range"]),
            random_state=SEED,
        )
        t0 = time.perf_counter()
        # Streaming export: jobs flow one at a time from the generator to
        # the columnar writer; the full trace never sits in parent memory.
        save_trace_npz(gen.iter_jobs(), store_path, name=gen.schema)
        build_seconds = time.perf_counter() - t0
        store_bytes = store_path.stat().st_size

        arms = {}
        for arm in ARMS:
            print(f"[bench_replay_scale] running arm {arm} ...", flush=True)
            arms[arm] = _spawn_arm(arm, store_path, scale, workers)

    serial = arms["serial"]
    mismatches = [
        {"arm": "shared_store", "replay": key}
        for key, digest in arms["shared_store"]["parity"].items()
        if serial["parity"].get(key) != digest
    ]
    parity_ok = not mismatches

    speedup = {"shared_store": serial["seconds"] / arms["shared_store"]["seconds"]}
    cpu_count = os.cpu_count() or 1
    speedup_skip = None
    if args.smoke:
        speedup_skip = "smoke mode measures freshness, not throughput"
    elif cpu_count < workers:
        speedup_skip = (
            f"host has {cpu_count} CPUs; the {SPEEDUP_GATE}x gate needs "
            f"{workers} workers with real cores"
        )
    speedup_gate = {
        "required": SPEEDUP_GATE,
        "measured": speedup["shared_store"],
        "skipped": speedup_skip is not None,
    }
    if speedup_skip:
        speedup_gate["reason"] = speedup_skip
        speedup_gate["passed"] = None
    else:
        speedup_gate["passed"] = speedup["shared_store"] >= SPEEDUP_GATE

    report = {
        "benchmark": "replay_scale",
        "created_unix": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": cpu_count,
        },
        "config": {
            "smoke": args.smoke,
            "seed": SEED,
            "workers": workers,
            **{k: list(v) if isinstance(v, tuple) else v for k, v in scale.items()},
        },
        "setup": {
            "store_build_seconds": build_seconds,
            "store_bytes": store_bytes,
        },
        "arms": {
            name: {k: v for k, v in payload.items() if k != "parity"}
            for name, payload in arms.items()
        },
        "speedup_vs_serial": speedup,
        "parity": {
            "n_replays_checked": len(serial["parity"]),
            "ok": parity_ok,
            "mismatches": mismatches,
        },
        "gates": {
            "parity": {"passed": parity_ok},
            "speedup": speedup_gate,
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_replay_scale] report -> {out_path}")
    for name, payload in arms.items():
        print(
            f"  {name:15s} {payload['seconds']:8.2f}s "
            f"{payload['jobs_per_sec']:8.2f} jobs/s "
            f"peak RSS {payload['peak_rss_mb']:8.1f} MB"
        )
    if not parity_ok:
        print(f"[bench_replay_scale] PARITY FAILURE: {mismatches}", file=sys.stderr)
        return 1
    if speedup_gate.get("passed") is False:
        print(
            f"[bench_replay_scale] speedup gate failed: "
            f"{speedup['shared_store']:.2f}x < {SPEEDUP_GATE}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
