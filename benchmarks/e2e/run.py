"""End-to-end NURD benchmark: one command, three workloads, named metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload replay_google_nurd --seed 3
    python3 benchmarks/e2e/run.py --workload serve_google_online --trace
    python3 benchmarks/e2e/run.py --smoke              # small, for CI

Each workload prints every metric by name with its unit, runs its
correctness checks, writes a result record (and, traced, its spans) under
``benchmarks/e2e/out/``, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Untraced, the metrics are the ``end_to_end`` list of ``BENCHMARK.json``;
with ``--trace`` they are its ``per_layer`` list. A traced run does half the
work untraced, then the same work again with every mapped layer wrapped, and
reports the ratio of the two wall times. The exit code is 0 only when every
check passed. See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is a single process, and BLAS thread pools on a
# 2-core host make timings wander (see README.md). Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SECONDS = 20


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured work, in seconds on the reference host "
                             f"(default {DEFAULT_SECONDS}; smoke 1)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads; recorded apart from full runs")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result records and spans")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(DEFAULT_SECONDS)
    if args.seconds <= 0:
        parser.error("--seconds must be positive.")
    return args


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _header(args, spec) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "config": {
            "kind": spec.kind,
            "family": spec.family,
            "base_seed": spec.base_seed,
            "task_range": list(spec.task_range),
            "methods": list(spec.methods),
            "n_checkpoints": 10,
        },
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")


def _select(values: dict, wanted) -> dict:
    """The ``BENCHMARK.json`` metrics, by name with unit, in its order."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

#: Prefixes of predictor spans; their sums form the ``core.base`` rows (the
#: ``OnlineStragglerPredictor`` protocol every method implements).
_PREDICTOR_PREFIXES = ("core.nurd.", "eval.baselines.")


def per_layer_values(tracer, root: int, base, traced):
    """All per-layer values and, separately, the work counts among them."""
    from e2e_spans import BENCH_PREFIX, layer_table, self_times

    spans = tracer.spans
    table = layer_table(spans)
    wall = spans[root][2] - spans[root][1]
    selfs = self_times(spans)
    values, counts = {}, {}
    for name, row in table.items():
        # Host probes run on a timer, so their number is not a work count.
        (values if name.startswith("hostspeed.") else counts)[f"{name}.calls"] = row["calls"]
        values[f"{name}.s"] = row["s"]
        values[f"{name}.self_s"] = row["self_s"]
    for call in ("update", "predict_stragglers"):
        rows = [
            row for name, row in table.items()
            if name.startswith(_PREDICTOR_PREFIXES) and name.endswith("." + call)
        ]
        counts[f"core.base.{call}.calls"] = sum(r["calls"] for r in rows)
        for stat in ("s", "self_s"):
            values[f"core.base.{call}.{stat}"] = sum(r[stat] for r in rows)
    values["sim.replay.self_s"] = sum(
        row["self_s"] for name, row in table.items() if name.startswith("sim.replay.")
    )
    counts.update(tracer.counts)

    def get(key):
        return values.get(key, counts.get(key, 0))

    def ns_per(time_key, unit_key):
        units = get(unit_key)
        return get(time_key) * 1e9 / units if units else 0.0

    values["learn.gbm.fit.ns_per_row_feature_tree"] = ns_per(
        "learn.gbm.fit.s", "learn.gbm.fit.row_feature_trees"
    )
    values["learn.neighbors.tree.ns_per_n_log2_n"] = ns_per(
        "learn.neighbors.tree.s", "learn.neighbors.n_log2_n"
    )
    values["sim.replay.observed.ns_per_cell"] = ns_per(
        "sim.replay.observed.s", "sim.replay.observed_cells"
    )
    tree_calls = get("learn.neighbors.tree.calls")
    values["learn.neighbors.hit_ratio"] = (
        (tree_calls - get("learn.neighbors.tree_builds")) / tree_calls
        if tree_calls else 0.0
    )
    serving = traced.notes.get("serving", {})
    counts["serving.engine.scored_events"] = serving.get("scored_events", 0)
    counts["serving.engine.update_modes.full"] = serving.get("update_modes_full", 0)
    counts["serving.service.restarts"] = serving.get("restarts", 0)
    counts["serving.service.dlq"] = serving.get("dlq", 0)
    for key in ("queue_wait_ms_p50", "queue_wait_ms_p99", "emit_lag_ms_p50"):
        if key in serving:
            values[f"serving.service.{key}"] = serving[key]
    bench_self = sum(
        selfs[i] for i, s in enumerate(spans) if s[0].startswith(BENCH_PREFIX)
    )
    values["trace.unattributed_share"] = bench_self / wall
    values["trace.overhead_ratio"] = traced.measure_s / base.measure_s
    values["trace.wall_s"] = wall
    values.update(counts)
    return values, counts


def _print_layer_table(tracer, root: int) -> None:
    from e2e_spans import layer_table

    wall = tracer.spans[root][2] - tracer.spans[root][1]
    table = layer_table(tracer.spans)
    print(f"per-layer table (traced wall {wall:.3f} s)")
    print(f"  {'span':52s} {'calls':>8s} {'total s':>10s} {'self s':>10s} {'share':>7s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["s"]):
        print(
            f"  {name:52s} {row['calls']:8d} {row['s']:10.4f} "
            f"{row['self_s']:10.4f} {row['s'] / wall:7.1%}"
        )


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_one(args, bench: dict) -> int:
    from e2e_spans import Tracer, instrument
    from e2e_workloads import WORKLOADS, Scale, run_workload

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reps = 1 if args.smoke else None
    kw = {} if reps is None else {"setup_reps": reps}
    tag = f"{spec.name}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    print(f"workload {spec.name}: seed={args.seed} seconds={args.seconds:g} "
          f"smoke={args.smoke} trace={args.trace}")

    if not args.trace:
        out = run_workload(spec, args.seed, Scale(args.seconds, args.smoke), out_dir, **kw)
        values = dict(out.metrics, peak_rss_mb=_peak_rss_mb())
        metrics = _select(values, bench["end_to_end"])
        counts, layers = {}, {}
    else:
        half = Scale(args.seconds / 2.0, args.smoke)
        base = run_workload(spec, args.seed, half, out_dir, **kw)
        tracer, events = Tracer(), {}
        instrument(tracer, events)
        try:
            with tracer.span(f"bench.{spec.name}") as root:
                traced = run_workload(
                    spec, args.seed, half, out_dir, tracer=tracer,
                    setup_reps=1, checks=False, events=events,
                )
        finally:
            tracer.unpatch()
        out = base
        out.attempted += 1
        if traced.digest != base.digest:
            out.failed += 1
            out.failures.append("traced flags differ from untraced flags")
        values, counts = per_layer_values(tracer, root, base, traced)
        # A layer this workload never enters did zero work.
        for m in bench["per_layer"]:
            if m["unit"] == "count":
                values.setdefault(m["name"], 0)
        _print_layer_table(tracer, root)
        tracer.write_jsonl(out_dir / f"spans_{spec.name}.jsonl")
        metrics = _select(values, bench["per_layer"])
        layers = values
        print("counts, floors and ratios:")
        for name in sorted(values):
            if not name.endswith((".s", ".self_s", ".calls")):
                print(f"  {name:48s} {values[name]:>16.6g}")

    print("notes: " + json.dumps(
        {k: v for k, v in out.notes.items() if k != "serving"}, default=float
    ))
    for failure in out.failures:
        print(f"CHECK FAILED: {failure}")
    correct = out.failed == 0
    print(f"checks: attempted={out.attempted} failed={out.failed} "
          f"failed_share={out.failed / out.attempted:.6f} digest={out.digest}")
    _print_metrics("metrics:", metrics)
    record = {
        "header": _header(args, spec),
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "digest": out.digest,
        "metrics": metrics,
        "counts": counts,
        "layers": layers,
        "notes": out.notes,
        "finished_at": time.time(),
    }
    (out_dir / f"{tag}_{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------

def run_all(args, argv) -> int:
    from e2e_workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--workload", name]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status if combined["correct"] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro  # noqa: F401
        bench = _load_spec()
    except (ImportError, OSError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, argv)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
