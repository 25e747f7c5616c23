"""Detector fit-phase benchmark: loop fits vs. batched fit kernels.

Writes ``BENCH_detector_fits.json`` next to this file. Run with::

    PYTHONPATH=src python benchmarks/perf/bench_detector_fits.py

``bench_detectors.py`` covers the *scoring* vectorization (both of its
arms score one forest from the shipping builder, so its zero-delta
contract holds); this benchmark covers the *fit* batching:

- **fits** — per-component fit wall time, before (the preserved loop
  implementations: recursive tree builder, per-trial MCD C-steps,
  sequential k-means restarts, per-sample one-class SGD, dense SOS
  binding) vs. after (level-synchronous forest builds, stacked C-step
  trials, batched Lloyd restarts, blocked one-class SGD, kNN-sparse
  binding). The acceptance gate is the **aggregate** fit-phase speedup
  (≥ 3x at full scale) — individual components vary from ~1.2x (XGBOD)
  to ~40x (SOS).
- **determinism** — every batched arm refit with the same seed must
  reproduce its fitted state byte-for-byte (the forest builder draws from
  per-node counter-seeded streams precisely so batch layout cannot leak
  into the result).
- **sos_memory** — the kNN binding matrix must fit a checkpoint size whose
  dense (n, n) affinity matrix would be ≥ 10x its peak footprint.
- **metric_deltas** (full mode only) — Table-3 tpr/fpr/f1 deltas of the
  batched arms against the loop arms on the tier-1 traces, all ≤ 0.01.
  MCD/CBLOF/OCSVM/SOS compare directly (their batched fits are numerically
  equivalent or calibrated); the forest-backed detectors draw a *different
  but equally valid* RNG stream, so their deltas are measured on
  seed-averaged metrics (mean over ``N_FOREST_SEEDS`` harness seeds), which
  isolates the builder's systematic effect from single-forest noise. Their
  "before" arm is ``REFERENCE_FOREST_FITS`` in
  ``tests/test_detector_vectorization.py``: the original per-node
  tree builder feeding the shipping packed scorer.

``--smoke`` runs a scaled-down fits + determinism pass only, for CI
freshness behind ``check_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

_REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_REPO / "tests"))

from test_detector_fit_vectorization import (  # noqa: E402
    _DenseSOS,
    _KnnSOS,
    _ReferenceKMeans,
    _ReferenceMCD,
    _ReferenceOneClassSVM,
)
from test_detector_vectorization import REFERENCE_FOREST_FITS  # noqa: E402

import repro.outliers.cblof as cblof_mod  # noqa: E402
import repro.outliers.ocsvm as ocsvm_mod  # noqa: E402
from repro.eval import EvaluationConfig, evaluate_all  # noqa: E402
from repro.learn.neighbors import clear_neighbor_cache  # noqa: E402
from repro.outliers import MCD, SOS, XGBOD, CBLOF, IForest  # noqa: E402
from repro.outliers import ALL_DETECTORS  # noqa: E402
from repro.outliers.ocsvm import OCSVMDetector  # noqa: E402
from repro.traces.alibaba import AlibabaTraceGenerator  # noqa: E402
from repro.traces.google import GoogleTraceGenerator  # noqa: E402

#: Tier-1 trace configuration (mirrors benchmarks/conftest.py).
TASK_RANGE = (120, 180)
TRACE_SEED = 42
N_CHECKPOINTS = 10
#: Harness seeds averaged for the forest-backed metric deltas.
N_FOREST_SEEDS = 3

_FAMILIES = (("google", GoogleTraceGenerator), ("alibaba", AlibabaTraceGenerator))


# ---------------------------------------------------------------------------
# Loop ("before") arms for the detectors whose references live per-component
# ---------------------------------------------------------------------------

class _RefCBLOF(CBLOF):
    """CBLOF on the sequential-restart / per-cluster-loop k-means."""

    def _fit(self, X):
        saved = cblof_mod.KMeans
        cblof_mod.KMeans = _ReferenceKMeans
        try:
            super()._fit(X)
        finally:
            cblof_mod.KMeans = saved


class _RefOCSVM(OCSVMDetector):
    """OCSVM on the per-sample SGD loop."""

    def _fit(self, X):
        saved = ocsvm_mod.OneClassSVM
        ocsvm_mod.OneClassSVM = _ReferenceOneClassSVM
        try:
            super()._fit(X)
        finally:
            ocsvm_mod.OneClassSVM = saved


# ---------------------------------------------------------------------------
# Fit-timing components
# ---------------------------------------------------------------------------

def _dataset(n: int, d: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    n_out = max(n // 20, 5)
    X[-n_out:] += 6.0
    y = np.zeros(n, dtype=np.int64)
    y[-n_out:] = 1
    return np.ascontiguousarray(X), y


def _forest_bytes(det):
    f = det.forest_
    return b"".join(
        a.tobytes() for a in (f.feature, f.threshold, f.left, f.right, f.size)
    ) + det.decision_scores_.tobytes()


def _scores_bytes(det):
    return det.decision_scores_.tobytes()


#: name -> (before factory, after factory, needs_y, fitted-state bytes).
#: Factories take no arguments; each call returns a fresh estimator.
COMPONENTS = {
    "IFOREST": (
        lambda: REFERENCE_FOREST_FITS["IFOREST"](contamination=0.1, random_state=0),
        lambda: IForest(contamination=0.1, random_state=0),
        False,
        _forest_bytes,
    ),
    "XGBOD": (
        lambda: REFERENCE_FOREST_FITS["XGBOD"](contamination=0.1, random_state=0),
        lambda: XGBOD(contamination=0.1, random_state=0),
        True,
        _scores_bytes,
    ),
    "MCD": (
        lambda: _ReferenceMCD(random_state=0),
        lambda: MCD(random_state=0),
        False,
        lambda det: det.location_.tobytes()
        + det.covariance_.tobytes()
        + det.decision_scores_.tobytes(),
    ),
    "CBLOF": (
        lambda: _RefCBLOF(random_state=0),
        lambda: CBLOF(random_state=0),
        False,
        lambda det: det.kmeans_.cluster_centers_.tobytes()
        + det.decision_scores_.tobytes(),
    ),
    "OCSVM": (
        lambda: _RefOCSVM(random_state=0),
        lambda: OCSVMDetector(random_state=0),
        False,
        lambda det: det.model_.coef_.tobytes() + det.decision_scores_.tobytes(),
    ),
    # The kNN binding at every size: at smoke scale the row-count rule
    # would keep SOS dense; from 1024 rows it is what SOS() runs.
    "SOS": (
        lambda: _DenseSOS(),
        lambda: _KnnSOS(),
        False,
        _scores_bytes,
    ),
}


def _fit(model, X, y, needs_y):
    clear_neighbor_cache()
    if needs_y:
        model.fit(X, y)
    else:
        model.fit(X)
    return model


def bench_fits(n_rows: int, repeats: int) -> dict:
    """Per-component before/after fit wall time at ``n_rows`` rows."""
    X, y = _dataset(n_rows)
    rows = {}
    for name, (make_before, make_after, needs_y, _) in COMPONENTS.items():
        best_b = best_a = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            _fit(make_before(), X, y, needs_y)
            best_b = min(best_b, time.perf_counter() - t0)
            t0 = time.perf_counter()
            _fit(make_after(), X, y, needs_y)
            best_a = min(best_a, time.perf_counter() - t0)
        rows[name] = {
            "before_s": round(best_b, 4),
            "after_s": round(best_a, 4),
            "speedup": round(best_b / max(best_a, 1e-12), 2),
        }
        print(
            f"  {name:10s} fit {best_b:8.3f}s -> {best_a:7.3f}s "
            f"({rows[name]['speedup']:6.2f}x)"
        )
    return rows


def bench_determinism(n_rows: int) -> dict:
    """Same-seed refits of every batched arm must be byte-identical."""
    X, y = _dataset(n_rows)
    rows = {}
    for name, (_, make_after, needs_y, state) in COMPONENTS.items():
        a = state(_fit(make_after(), X, y, needs_y))
        b = state(_fit(make_after(), X.copy(), y.copy(), needs_y))
        rows[name] = a == b
        print(f"  {name:10s} bit-identical rerun: {rows[name]}")
    return {"per_component": rows, "passed": all(rows.values())}


def bench_sos_memory(n_rows: int) -> dict:
    """Peak footprint of the kNN binding fit vs. the dense (n, n) matrix.

    The dense floor counts only the affinity matrix itself (n² float64) —
    the dense path actually materializes several such arrays, so the
    reported ratio is conservative.
    """
    X, _ = _dataset(n_rows)
    det = SOS()
    clear_neighbor_cache()
    tracemalloc.start()
    det.fit(X)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dense_bytes = n_rows * n_rows * 8
    out = {
        "n_rows": n_rows,
        "knn_peak_mb": round(peak / 1e6, 2),
        "dense_matrix_mb": round(dense_bytes / 1e6, 2),
        "ratio": round(dense_bytes / max(peak, 1), 1),
        "scores_finite": bool(np.all(np.isfinite(det.decision_scores_))),
        "passed": bool(
            dense_bytes >= 10 * peak
            and np.all(np.isfinite(det.decision_scores_))
        ),
    }
    print(
        f"  SOS knn fit at n={n_rows}: peak {out['knn_peak_mb']}MB vs dense "
        f"matrix {out['dense_matrix_mb']}MB ({out['ratio']}x)"
    )
    return out


# ---------------------------------------------------------------------------
# Table-3 metric deltas (full mode)
# ---------------------------------------------------------------------------

#: Detectors whose batched fits are numerically equivalent (MCD, CBLOF) or
#: recalibrated to the same contract (OCSVM's quantile rho, SOS's exact
#: binding at tier-1 scale): compared on a single harness seed.
_EXACT_BEFORE = {
    "MCD": _ReferenceMCD,
    "CBLOF": _RefCBLOF,
    "OCSVM": _RefOCSVM,
    "SOS": _DenseSOS,
}
_EXACT_NAMES = list(_EXACT_BEFORE)
#: Forest-backed detectors draw a different (counter-seeded) stream, so
#: single-seed deltas measure forest-sampling noise; these compare
#: seed-averaged metrics instead.
_FOREST_NAMES = ["IFOREST", "XGBOD"]
_METRICS = ("tpr", "fpr", "f1")


def _swap_registry(before: dict):
    saved = {n: ALL_DETECTORS[n] for n in before}
    ALL_DETECTORS.update(before)
    return saved


def bench_metric_deltas(n_jobs: int) -> dict:
    out = {}
    for family, gen in _FAMILIES:
        trace = gen(
            n_jobs=n_jobs, task_range=TASK_RANGE, random_state=TRACE_SEED
        ).generate()

        cfg = EvaluationConfig(n_checkpoints=N_CHECKPOINTS, random_state=0)
        after = evaluate_all(trace, _EXACT_NAMES, cfg)
        saved = _swap_registry(_EXACT_BEFORE)
        try:
            before = evaluate_all(trace, _EXACT_NAMES, cfg)
        finally:
            ALL_DETECTORS.update(saved)
        deltas = {
            m: round(
                max(
                    abs(getattr(before[m], a) - getattr(after[m], a))
                    for a in _METRICS
                ),
                6,
            )
            for m in _EXACT_NAMES
        }

        acc_b = {m: [] for m in _FOREST_NAMES}
        acc_a = {m: [] for m in _FOREST_NAMES}
        for seed in range(N_FOREST_SEEDS):
            cfg = EvaluationConfig(n_checkpoints=N_CHECKPOINTS, random_state=seed)
            res_a = evaluate_all(trace, _FOREST_NAMES, cfg)
            saved = _swap_registry(REFERENCE_FOREST_FITS)
            try:
                res_b = evaluate_all(trace, _FOREST_NAMES, cfg)
            finally:
                ALL_DETECTORS.update(saved)
            for m in _FOREST_NAMES:
                acc_a[m].append([getattr(res_a[m], a) for a in _METRICS])
                acc_b[m].append([getattr(res_b[m], a) for a in _METRICS])
        for m in _FOREST_NAMES:
            diff = np.abs(
                np.mean(acc_b[m], axis=0) - np.mean(acc_a[m], axis=0)
            )
            deltas[m] = round(float(diff.max()), 6)

        out[family] = {
            "max_metric_delta": max(deltas.values()),
            "metric_delta_by_detector": deltas,
            "forest_seeds_averaged": N_FOREST_SEEDS,
        }
        print(
            f"  {family}: max Table-3 delta "
            f"{out[family]['max_metric_delta']:.4f} "
            f"(per detector: {deltas})"
        )
    max_delta = max(row["max_metric_delta"] for row in out.values())
    return {"per_family": out, "max_delta": max_delta, "tolerance": 0.01,
            "passed": bool(max_delta <= 0.01)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).parent / "BENCH_detector_fits.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="scaled-down fits + determinism only (CI freshness check)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timing repeats per arm (best-of)",
    )
    args = parser.parse_args()

    n_rows = 384 if args.smoke else 2048
    report = {
        "env": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "n_rows": n_rows,
            "repeats": args.repeats,
            "smoke": bool(args.smoke),
        },
    }

    print(f"fit timings at n={n_rows} (before = loop implementations):")
    fits = bench_fits(n_rows, args.repeats)
    report["fits"] = fits
    before = sum(r["before_s"] for r in fits.values())
    after = sum(r["after_s"] for r in fits.values())
    aggregate = {
        "before_s": round(before, 2),
        "after_s": round(after, 2),
        "speedup": round(before / max(after, 1e-12), 2),
        "speedup_target": 3.0,
    }
    report["aggregate"] = aggregate
    print(
        f"aggregate fit: {aggregate['before_s']}s -> {aggregate['after_s']}s "
        f"({aggregate['speedup']}x)"
    )

    print("determinism (same-seed batched refits):")
    determinism = bench_determinism(n_rows)
    report["gates"] = {"determinism": determinism}

    ok = determinism["passed"]
    if args.smoke:
        # The memory and metric-delta gates need full scale: at smoke sizes
        # the dense matrix is too small for a meaningful footprint ratio and
        # the Table-3 replays dominate CI time. check_bench.py records the
        # absent fields as SKIP-with-reason.
        print("smoke mode: skipping sos_memory and metric_deltas gates")
    else:
        print("SOS memory (kNN binding vs dense matrix):")
        report["gates"]["sos_memory"] = bench_sos_memory(4096)
        print("Table-3 metric deltas (batched vs loop arms, tier-1 traces):")
        report["gates"]["metric_delta"] = bench_metric_deltas(n_jobs=12)
        aggregate["pass"] = bool(
            aggregate["speedup"] >= aggregate["speedup_target"]
            and report["gates"]["sos_memory"]["passed"]
            and report["gates"]["metric_delta"]["passed"]
            and determinism["passed"]
        )
        ok = aggregate["pass"]
        print(f"acceptance    : {aggregate}")

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
