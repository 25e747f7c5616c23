"""Training-speed benchmark: exact vs. histogram GBM fits, full-refit vs.
warm-start checkpoints, and serial vs. parallel ``evaluate_all``.

Writes ``BENCH_training.json`` next to this file so successive PRs can track
the performance trajectory. Run with::

    PYTHONPATH=src python benchmarks/perf/bench_training.py

The shipping models grow histogram trees only. The exact-splitter arm is
``EXACT_REFERENCE`` in ``tests/test_hist_training.py``: exact-splitter
stand-ins for ``GradientBoostingRegressor`` and ``GrabitRegressor``.

The end-to-end section replays the tier-1 benchmark traces (6 jobs per
family, tasks 120-180, seed 42 — the same configuration as
``benchmarks/conftest.py``) through the GBM-backed methods twice:

- **baseline** — exact split search (the reference models swapped into
  ``repro.core.nurd`` and ``repro.eval.baselines``), full 60-tree refit at
  every checkpoint, strictly serial job loop (the seed-repo behaviour);
- **optimized** — the shipping histogram trees, warm-started checkpoint
  refits with geometric refresh, and ``n_workers > 1``.

Alongside the speedup it records NURD's Table-3 deltas between the two
configurations; the acceptance gate is ≥3× end-to-end with TPR/FPR/F1
within ±0.02.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

_REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_REPO / "tests"))

from test_hist_training import EXACT_REFERENCE  # noqa: E402

import repro.core.nurd as nurd_mod  # noqa: E402
import repro.eval.baselines as baselines_mod  # noqa: E402
from repro.eval import EvaluationConfig, evaluate_all  # noqa: E402
from repro.learn.gbm import GradientBoostingRegressor  # noqa: E402
from repro.traces.alibaba import AlibabaTraceGenerator  # noqa: E402
from repro.traces.google import GoogleTraceGenerator  # noqa: E402

#: Tier-1 benchmark trace configuration (mirrors benchmarks/conftest.py).
N_JOBS = 6
TASK_RANGE = (120, 180)
SEED = 42
NURD_ALPHA = {"google": 0.5, "alibaba": 0.35}
N_CHECKPOINTS = 10

#: The GBM-backed Table-3 methods — the ones this PR's machinery touches.
METHODS = ["GBTR", "Grabit", "NURD-NC", "NURD"]

#: method_params pinning the seed-repo behaviour for the baseline arm (its
#: exact split search comes from swapping in ``EXACT_REFERENCE``).
BASELINE_PARAMS = {
    "NURD": {"warm_start": False},
    "NURD-NC": {"warm_start": False},
}

#: Modules whose boosted-model names the baseline arm rebinds.
_MODEL_MODULES = (nurd_mod, baselines_mod)


def _swap_models(models: dict) -> list:
    """Rebind each model name found in ``_MODEL_MODULES``; return what to
    restore."""
    saved = []
    for module in _MODEL_MODULES:
        for name, cls in models.items():
            if hasattr(module, name):
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, cls)
    return saved


def bench_micro_fits(n: int = 150, d: int = 15, n_estimators: int = 60,
                     repeats: int = 3) -> dict:
    """Time one ensemble fit, exact vs. hist, at NURD's per-checkpoint scale."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, d))
    y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + rng.normal(scale=0.2, size=n)

    def one(model_cls):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            model_cls(n_estimators=n_estimators, max_depth=3).fit(X, y)
            best = min(best, time.perf_counter() - t0)
        return best

    t_exact = one(EXACT_REFERENCE["GradientBoostingRegressor"])
    t_hist = one(GradientBoostingRegressor)
    return {
        "n_samples": n,
        "n_features": d,
        "n_estimators": n_estimators,
        "exact_s": round(t_exact, 4),
        "hist_s": round(t_hist, 4),
        "speedup": round(t_exact / t_hist, 2),
    }


def bench_warm_start(n: int = 150, d: int = 15) -> dict:
    """Cost of 10 checkpoint refits: from-scratch vs. warm-started."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, d))
    y = 2.0 * X[:, 0] + rng.normal(scale=0.2, size=n)
    sizes = np.linspace(n // 10, n, 10).astype(int)

    t0 = time.perf_counter()
    for s in sizes:
        GradientBoostingRegressor(n_estimators=60).fit(X[:s], y[:s])
    t_scratch = time.perf_counter() - t0

    t0 = time.perf_counter()
    m = GradientBoostingRegressor(n_estimators=60, warm_start=True)
    m.fit(X[: sizes[0]], y[: sizes[0]])
    for s in sizes[1:]:
        m.set_params(n_estimators=len(m.estimators_) + 15)
        m.fit(X[:s], y[:s])
    t_warm = time.perf_counter() - t0
    return {
        "checkpoints": len(sizes),
        "scratch_s": round(t_scratch, 4),
        "warm_s": round(t_warm, 4),
        "speedup": round(t_scratch / t_warm, 2),
    }


def bench_end_to_end(n_workers: int) -> dict:
    """Serial/exact/full-refit vs. parallel/hist/warm ``evaluate_all``."""
    out = {}
    for family, gen in (
        ("google", GoogleTraceGenerator),
        ("alibaba", AlibabaTraceGenerator),
    ):
        trace = gen(
            n_jobs=N_JOBS, task_range=TASK_RANGE, random_state=SEED
        ).generate()
        cfg_base = EvaluationConfig(
            n_checkpoints=N_CHECKPOINTS, alpha=NURD_ALPHA[family],
            random_state=0, method_params=BASELINE_PARAMS,
        )
        cfg_opt = EvaluationConfig(
            n_checkpoints=N_CHECKPOINTS, alpha=NURD_ALPHA[family],
            random_state=0,
        )
        saved = _swap_models(EXACT_REFERENCE)
        try:
            t0 = time.perf_counter()
            res_base = evaluate_all(trace, METHODS, cfg_base)
            t_base = time.perf_counter() - t0
        finally:
            for module, name, cls in saved:
                setattr(module, name, cls)
        t0 = time.perf_counter()
        res_opt = evaluate_all(trace, METHODS, cfg_opt, n_workers=n_workers)
        t_opt = time.perf_counter() - t0

        nurd_b, nurd_o = res_base["NURD"], res_opt["NURD"]
        out[family] = {
            "baseline_s": round(t_base, 2),
            "optimized_s": round(t_opt, 2),
            "speedup": round(t_base / t_opt, 2),
            "n_workers": n_workers,
            "methods": METHODS,
            "nurd_metrics": {
                "baseline": {
                    "tpr": round(nurd_b.tpr, 4),
                    "fpr": round(nurd_b.fpr, 4),
                    "f1": round(nurd_b.f1, 4),
                },
                "optimized": {
                    "tpr": round(nurd_o.tpr, 4),
                    "fpr": round(nurd_o.fpr, 4),
                    "f1": round(nurd_o.f1, 4),
                },
                "abs_delta": {
                    "tpr": round(abs(nurd_b.tpr - nurd_o.tpr), 4),
                    "fpr": round(abs(nurd_b.fpr - nurd_o.fpr), 4),
                    "f1": round(abs(nurd_b.f1 - nurd_o.f1), 4),
                },
            },
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).parent / "BENCH_training.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--n-workers", type=int, default=max(2, os.cpu_count() or 1),
        help="worker processes for the parallel evaluate_all arm",
    )
    parser.add_argument(
        "--skip-end-to-end", action="store_true",
        help="only run the micro benchmarks (fast smoke mode)",
    )
    args = parser.parse_args()

    report = {
        "env": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "micro_fit": bench_micro_fits(),
        "warm_start": bench_warm_start(),
    }
    print(f"micro fit     : {report['micro_fit']}")
    print(f"warm start    : {report['warm_start']}")

    ok = True
    if not args.skip_end_to_end:
        e2e = bench_end_to_end(args.n_workers)
        report["end_to_end"] = e2e
        for family, row in e2e.items():
            print(
                f"end-to-end {family}: {row['baseline_s']}s -> "
                f"{row['optimized_s']}s ({row['speedup']}x), "
                f"NURD deltas {row['nurd_metrics']['abs_delta']}"
            )
        total_base = sum(row["baseline_s"] for row in e2e.values())
        total_opt = sum(row["optimized_s"] for row in e2e.values())
        overall = total_base / total_opt
        deltas = [
            max(row["nurd_metrics"]["abs_delta"].values())
            for row in e2e.values()
        ]
        report["acceptance"] = {
            "overall_speedup": round(overall, 2),
            "per_family_speedup": {
                f: row["speedup"] for f, row in e2e.items()
            },
            "max_metric_delta": max(deltas),
            "speedup_target": 3.0,
            "metric_tolerance": 0.02,
            "pass": bool(overall >= 3.0 and max(deltas) <= 0.02),
        }
        ok = report["acceptance"]["pass"]
        print(f"acceptance    : {report['acceptance']}")

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
