"""Benchmark-regression gate: fresh smoke ``BENCH_*.json`` vs. committed
baselines.

CI runs the three speed benchmarks (training, detectors, detector fits) in
smoke mode (fresh records land in ``--fresh-dir``), then this script
compares them against the committed full-mode baselines in
``benchmarks/perf/``:

- **exact fields** — parity/correctness invariants (bit-parity booleans,
  gate verdicts). Scale-independent: they must match the baseline exactly,
  whatever the runner.
- **ratio fields** — throughput/speedup numbers, which may only regress so
  far: ``fresh >= baseline * (1 - rel_tol)`` (exceeding the baseline is
  never a failure; smoke runs on beefier runners routinely do).

A dotted path missing on either side is skipped with a reason rather than
failed — smoke and full records legitimately differ in shape (e.g.
``bench_training --skip-end-to-end`` omits the end-to-end section).

Every other verdict lives in the tier-1 tests, and
``bench_replay_scale.py`` exits nonzero on its own parity loss.

Run what CI runs::

    PYTHONPATH=src python benchmarks/perf/check_bench.py --fresh-dir /tmp

Exit status is nonzero iff any comparison FAILs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List

BASELINE_DIR = Path(__file__).parent


@dataclass
class Check:
    """One field comparison within a benchmark record."""

    path: str                      # dotted path into the JSON record
    kind: str                      # "exact" | "ratio"
    rel_tol: float = 0.5           # ratio: fresh >= baseline * (1 - rel_tol)


#: What each benchmark must not regress on. Parity fields are the
#: correctness contract of past PRs; ratio fields catch a perf cliff while
#: tolerating runner noise (smoke scale != baseline scale, so bands are
#: deliberately wide and one-sided).
SPECS = {
    "BENCH_training.json": [
        Check("micro_fit.speedup", "ratio", rel_tol=0.6),
        Check("warm_start.speedup", "ratio", rel_tol=0.6),
        Check("acceptance.pass", "exact"),
    ],
    "BENCH_detectors.json": [
        Check("aggregate.score.speedup", "ratio", rel_tol=0.6),
        Check("aggregate.refit.speedup", "ratio", rel_tol=0.6),
        Check("aggregate.pass", "exact"),
        Check("full_suite.google.max_metric_delta", "exact"),
        Check("full_suite.alibaba.max_metric_delta", "exact"),
    ],
    "BENCH_detector_fits.json": [
        Check("aggregate.speedup", "ratio", rel_tol=0.6),
        Check("gates.determinism.passed", "exact"),
        Check("aggregate.pass", "exact"),
    ],
}


def lookup(record: dict, dotted: str):
    """Resolve a dotted path; returns (found, value)."""
    node = record
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


@dataclass
class Outcome:
    bench: str
    path: str
    status: str                    # "PASS" | "SKIP" | "FAIL"
    detail: str

    def line(self) -> str:
        return f"{self.status:4s} {self.bench}:{self.path} — {self.detail}"


def compare(bench: str, check: Check, fresh: dict, baseline: dict) -> Outcome:
    have_fresh, fresh_val = lookup(fresh, check.path)
    have_base, base_val = lookup(baseline, check.path)
    if not have_base:
        detail = "field absent from committed baseline (new benchmark mode)"
        return Outcome(bench, check.path, "SKIP", detail)
    if not have_fresh:
        detail = "field absent from fresh smoke record (full-mode-only section)"
        return Outcome(bench, check.path, "SKIP", detail)
    if check.kind == "exact":
        if fresh_val == base_val:
            detail = f"matches baseline ({base_val!r})"
            return Outcome(bench, check.path, "PASS", detail)
        detail = f"expected {base_val!r} (baseline), got {fresh_val!r}"
        return Outcome(bench, check.path, "FAIL", detail)
    # ratio
    numeric = isinstance(fresh_val, (int, float)) and isinstance(base_val, (int, float))
    if not numeric:
        detail = f"non-numeric values: fresh {fresh_val!r}, baseline {base_val!r}"
        return Outcome(bench, check.path, "FAIL", detail)
    floor = base_val * (1.0 - check.rel_tol)
    if fresh_val >= floor:
        detail = (
            f"{fresh_val:.3f} >= {floor:.3f} (baseline {base_val:.3f}, "
            f"tol {check.rel_tol:.0%})"
        )
        return Outcome(bench, check.path, "PASS", detail)
    detail = (
        f"{fresh_val:.3f} < floor {floor:.3f} "
        f"(baseline {base_val:.3f}, tol {check.rel_tol:.0%})"
    )
    return Outcome(bench, check.path, "FAIL", detail)


def check_bench(
    name: str,
    checks: List[Check],
    fresh_dir: Path,
    baseline_dir: Path,
) -> List[Outcome]:
    baseline_path = baseline_dir / name
    fresh_path = fresh_dir / name
    if not baseline_path.exists():
        detail = f"no committed baseline at {baseline_path} (first run?)"
        return [Outcome(name, "*", "SKIP", detail)]
    if not fresh_path.exists():
        detail = (
            f"fresh record missing at {fresh_path} — did the smoke "
            "benchmark step run before this gate?"
        )
        return [Outcome(name, "*", "FAIL", detail)]
    try:
        fresh = json.loads(fresh_path.read_text())
        baseline = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as exc:
        return [Outcome(name, "*", "FAIL", f"unparseable record: {exc}")]
    return [compare(name, c, fresh, baseline) for c in checks]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh-dir",
        required=True,
        type=Path,
        help="directory holding the freshly emitted smoke BENCH_*.json",
    )
    parser.add_argument(
        "--baseline-dir",
        default=BASELINE_DIR,
        type=Path,
        help="directory with the committed baselines (default: this dir)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        help="restrict to specific BENCH_*.json names (repeatable)",
    )
    args = parser.parse_args()

    outcomes: List[Outcome] = []
    for name, checks in SPECS.items():
        if args.only and name not in args.only:
            continue
        outcomes.extend(check_bench(name, checks, args.fresh_dir, args.baseline_dir))

    n_fail = sum(o.status == "FAIL" for o in outcomes)
    n_skip = sum(o.status == "SKIP" for o in outcomes)
    n_pass = sum(o.status == "PASS" for o in outcomes)
    for o in outcomes:
        print(o.line())
    print(
        f"\nbenchmark regression gate: {n_pass} passed, {n_skip} skipped, "
        f"{n_fail} failed"
    )
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
