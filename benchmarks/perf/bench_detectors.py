"""Detector-suite benchmark: per-sample loop scoring vs. batched kernels.

Writes ``BENCH_detectors.json`` next to this file so successive PRs can
track the performance trajectory. Run with::

    PYTHONPATH=src python benchmarks/perf/bench_detectors.py

Two arms, both exercising the Table-3 refit-per-checkpoint workload on the
tier-1 benchmark traces (6 jobs per family, tasks 120-180, seed 42 — the
same configuration as ``benchmarks/conftest.py``):

- **before** — the pre-vectorization per-sample Python loops (preserved as
  ``_Reference*`` subclasses in ``tests/test_detector_vectorization.py``)
  with the shared neighbor cache disabled;
- **after** — the shipping batched kernels (``einsum`` ABOD angle
  variances, batched Prim SBN trails, simultaneous SOS bisection, gathered
  SOD/LSCP tensors, the packed isolation forest) plus the identity-keyed
  :class:`~repro.learn.neighbors.NeighborCache`.

``per_detector`` times each of the 14 detectors over every captured
checkpoint matrix, split into ``refit`` (fit + train scoring — the
end-to-end per-checkpoint cost) and ``score`` (``decision_function`` on the
checkpoint matrix — the path the batched kernels replace; the 3x
acceptance gate applies here). The IForest/XGBOD references override only
scoring, so both arms score the same forest from the shipping builder
(``bench_detector_fits.py`` times the build itself). ``full_suite`` replays
the complete 14-detector ``evaluate_all`` sweep under both arms (serially,
so the in-process implementation swap reaches every replay) and records
the Table-3 metric deltas — which must be zero, since the batched kernels
are numerically equivalent to the loops. ``--smoke`` runs both passes at a
scaled-down size (1 job per family, 40-60 tasks), so CI gates the
zero-delta contract too.
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

from test_detector_vectorization import REFERENCE_DETECTORS  # noqa: E402

from repro.core.base import OnlineStragglerPredictor  # noqa: E402
from repro.eval import EvaluationConfig, evaluate_all  # noqa: E402
from repro.eval.baselines import OUTLIER_NAMES  # noqa: E402
from repro.learn.neighbors import (  # noqa: E402
    clear_neighbor_cache,
    neighbor_cache_disabled,
)
from repro.outliers import ALL_DETECTORS  # noqa: E402
from repro.traces.alibaba import AlibabaTraceGenerator  # noqa: E402
from repro.traces.google import GoogleTraceGenerator  # noqa: E402

#: Tier-1 benchmark trace configuration (mirrors benchmarks/conftest.py).
N_JOBS = 6
TASK_RANGE = (120, 180)
SEED = 42
N_CHECKPOINTS = 10

_FAMILIES = (("google", GoogleTraceGenerator), ("alibaba", AlibabaTraceGenerator))


class _CheckpointRecorder(OnlineStragglerPredictor):
    """Replay passenger that captures every checkpoint's detector input."""

    def __init__(self):
        self.matrices = []

    def update(self, X_fin, y_fin, X_run, elapsed_run=None) -> None:
        X_fin = np.asarray(X_fin, dtype=float)
        X_run = np.asarray(X_run, dtype=float)
        self.matrices.append((np.vstack([X_fin, X_run]), X_fin.shape[0]))

    def predict_stragglers(self, X_run) -> np.ndarray:
        return np.zeros(np.asarray(X_run).shape[0], dtype=bool)

    @property
    def name(self) -> str:
        return "recorder"


def collect_checkpoint_matrices(n_jobs: int, task_range) -> list:
    """The exact (X_all, n_fin) inputs the Table-3 detectors refit on."""
    cfg = EvaluationConfig(n_checkpoints=N_CHECKPOINTS, random_state=0)
    matrices = []
    for _, gen in _FAMILIES:
        trace = gen(
            n_jobs=n_jobs, task_range=task_range, random_state=SEED
        ).generate()
        sim = cfg.make_simulator()
        for job in trace:
            recorder = _CheckpointRecorder()
            sim.run(job, recorder)
            matrices.extend(recorder.matrices)
    return matrices


def _make_detector(cls, name: str):
    kwargs = {"contamination": 0.1}
    if name in ("CBLOF", "IFOREST", "MCD", "OCSVM", "XGBOD"):
        kwargs["random_state"] = 0
    return cls(**kwargs)


def _fit_once(cls, name: str, X: np.ndarray, n_fin: int):
    det = _make_detector(cls, name)
    if name == "XGBOD":
        labels = np.concatenate(
            [np.zeros(n_fin), np.ones(X.shape[0] - n_fin)]
        ).astype(np.int64)
        det.fit(X, labels)
    else:
        det.fit(X)
    return det


def _time_arm(cls, name: str, matrices, cached: bool, repeats: int):
    """Return (refit_s, score_s) best-of-``repeats`` over all matrices."""

    def sweep():
        t_fit = t_score = 0.0
        for X, n_fin in matrices:
            # Cold cache per checkpoint refit: this benchmark measures one
            # checkpoint's kernel cost, so cross-checkpoint reuse (which the
            # content-keyed cache now provides in the harness) must not leak
            # into the timing.
            clear_neighbor_cache()
            t0 = time.perf_counter()
            det = _fit_once(cls, name, X, n_fin)
            t_fit += time.perf_counter() - t0
            t0 = time.perf_counter()
            det.decision_function(X)
            t_score += time.perf_counter() - t0
        return t_fit, t_score

    best_fit = best_score = np.inf
    for _ in range(repeats):
        if cached:
            t_fit, t_score = sweep()
        else:
            with neighbor_cache_disabled():
                t_fit, t_score = sweep()
        best_fit = min(best_fit, t_fit)
        best_score = min(best_score, t_score)
    return best_fit, best_score


def bench_per_detector(matrices, repeats: int) -> dict:
    """Before/after refit and scoring wall time per detector."""
    rows = {}
    for name in OUTLIER_NAMES:
        before_cls = REFERENCE_DETECTORS.get(name, ALL_DETECTORS[name])
        bf, bs = _time_arm(before_cls, name, matrices, False, repeats)
        af, as_ = _time_arm(ALL_DETECTORS[name], name, matrices, True, repeats)
        rows[name] = {
            "refit": {
                "before_s": round(bf, 4),
                "after_s": round(af, 4),
                "speedup": round(bf / max(af, 1e-12), 2),
            },
            "score": {
                "before_s": round(bs, 4),
                "after_s": round(as_, 4),
                "speedup": round(bs / max(as_, 1e-12), 2),
            },
            "touched": name in REFERENCE_DETECTORS,
        }
        print(
            f"  {name:8s} refit {bf:8.3f}s -> {af:7.3f}s "
            f"({rows[name]['refit']['speedup']:5.2f}x)   "
            f"score {bs:7.3f}s -> {as_:7.3f}s "
            f"({rows[name]['score']['speedup']:6.2f}x)"
        )
    return rows


def bench_full_suite(n_jobs: int, task_range) -> dict:
    """Serial ``evaluate_all`` over all 14 detectors, both arms, per family.

    Runs serially on purpose: the before-arm swaps the loop implementations
    into the in-process ``ALL_DETECTORS`` registry, which worker processes
    would not see.
    """
    out = {}
    for family, gen in _FAMILIES:
        trace = gen(
            n_jobs=n_jobs, task_range=task_range, random_state=SEED
        ).generate()
        cfg = EvaluationConfig(n_checkpoints=N_CHECKPOINTS, random_state=0)

        t0 = time.perf_counter()
        res_after = evaluate_all(trace, OUTLIER_NAMES, cfg)
        t_after = time.perf_counter() - t0

        saved = {n: ALL_DETECTORS[n] for n in REFERENCE_DETECTORS}
        ALL_DETECTORS.update(REFERENCE_DETECTORS)
        try:
            with neighbor_cache_disabled():
                t0 = time.perf_counter()
                res_before = evaluate_all(trace, OUTLIER_NAMES, cfg)
                t_before = time.perf_counter() - t0
        finally:
            ALL_DETECTORS.update(saved)

        deltas = {
            m: max(
                abs(getattr(res_before[m], a) - getattr(res_after[m], a))
                for a in ("tpr", "fpr", "f1")
            )
            for m in OUTLIER_NAMES
        }
        out[family] = {
            "before_s": round(t_before, 2),
            "after_s": round(t_after, 2),
            "speedup": round(t_before / max(t_after, 1e-12), 2),
            "max_metric_delta": max(deltas.values()),
            "metric_delta_by_detector": {
                m: round(d, 6) for m, d in deltas.items()
            },
        }
        print(
            f"full suite {family}: {t_before:.1f}s -> {t_after:.1f}s "
            f"({out[family]['speedup']:.2f}x), "
            f"max metric delta {out[family]['max_metric_delta']:.2e}"
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).parent / "BENCH_detectors.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="scaled-down per-detector and full-suite passes (CI check)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="timing repeats per arm (best-of)",
    )
    args = parser.parse_args()

    if args.smoke:
        n_jobs, task_range = 1, (40, 60)
    else:
        n_jobs, task_range = N_JOBS, TASK_RANGE
    matrices = collect_checkpoint_matrices(n_jobs, task_range)
    sizes = [m.shape[0] for m, _ in matrices]
    print(
        f"captured {len(matrices)} checkpoint matrices "
        f"({min(sizes)}-{max(sizes)} rows)"
    )

    report = {
        "env": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "n_jobs": n_jobs,
            "task_range": list(task_range),
            "n_checkpoints": N_CHECKPOINTS,
            "n_matrices": len(matrices),
            "smoke": bool(args.smoke),
        },
    }
    print("per-detector (before = loop implementations + no cache):")
    per_det = bench_per_detector(matrices, args.repeats)
    report["per_detector"] = per_det

    aggregate = {}
    for arm in ("refit", "score"):
        before = sum(r[arm]["before_s"] for r in per_det.values())
        after = sum(r[arm]["after_s"] for r in per_det.values())
        aggregate[arm] = {
            "before_s": round(before, 2),
            "after_s": round(after, 2),
            "speedup": round(before / max(after, 1e-12), 2),
        }
        print(
            f"aggregate {arm:5s}: {aggregate[arm]['before_s']}s -> "
            f"{aggregate[arm]['after_s']}s ({aggregate[arm]['speedup']}x)"
        )
    # The acceptance gate targets the scoring path — the per-sample loops
    # the batched kernels replace.
    aggregate["speedup_target"] = 3.0
    report["aggregate"] = aggregate

    full = bench_full_suite(n_jobs, task_range)
    report["full_suite"] = full
    max_delta = max(row["max_metric_delta"] for row in full.values())
    # Smoke scale is too small for the speedup target; only the zero-delta
    # contract gates there.
    ok = max_delta == 0.0
    if not args.smoke:
        aggregate["pass"] = bool(
            aggregate["score"]["speedup"] >= aggregate["speedup_target"]
            and max_delta == 0.0
        )
        ok = aggregate["pass"]
        print(f"acceptance    : {aggregate}")

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
