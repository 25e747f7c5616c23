"""Speed floors: each optimized kernel stays faster than its test-side reference.

Every ratio times a shipping code path against the reference it replaced, in
this process and on the same input. Each arm's time is its best of
``REPEATS`` interleaved rounds (reference, then shipping, in every round),
so load that slows the machine slows both arms alike, and a same-scale
ratio needs no committed record. A ratio below its floor fails with the
ratio's name, the measured value and the floor; ``pytest -rP`` prints every
measured value.

=================================  ==============================  =====
ratio                              reference / shipping            floor
=================================  ==============================  =====
``hist_vs_exact_gbm_fit``          exact-splitter GBM / histogram  3.316
``warm_vs_scratch_ckpt_refits``    10 scratch / warm-started fits  1.484
``detector_score``                 loop / batched scoring          3.16
``detector_refit``                 loop fit+score / batched        1.5
``detector_fit_aggregate``         loop / batched fits, 6 kinds    2.988
=================================  ==============================  =====

The floors are 40% of the first full-scale records of these speed-ups on a
2-core x86_64 VM under Python 3.11 (8.29x, 3.71x, 7.9x, 2.6x and 7.47x;
EXPERIMENTS.md, "Speed floors"), except ``detector_refit``: 40% of its
record (1.04) lay within the noise of two identical arms, so its floor is
1.5, between the shipping arm's 2.29-2.53x and the 0.94-1.05x it reads with
the reference bound into both arms. The GBM pair fits the 150-row, 15-feature,
60-stage ensemble a NURD checkpoint fits. The detector pairs sweep all 14
Table-3 detectors over every checkpoint matrix of one 40–60-task job per
trace family, the reference arm with its neighbor cache off. The fit
aggregate sums the six batched fit paths at 1,024 rows.

``test_sos_knn_binding_memory_floor`` is the one footprint floor: SOS's kNN
binding fit at 4,096 rows peaks at least 10x below the dense (n, n)
affinity matrix alone.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

import numpy as np
import pytest
from test_detector_fit_vectorization import (
    _DenseSOS,
    _KnnSOS,
    _ReferenceKMeans,
    _ReferenceMCD,
    _ReferenceOneClassSVM,
)
from test_detector_vectorization import REFERENCE_DETECTORS, REFERENCE_FOREST_FITS
from test_hist_training import ExactGBR

import repro.outliers.cblof as cblof_mod
import repro.outliers.ocsvm as ocsvm_mod
from repro.core.base import OnlineStragglerPredictor
from repro.eval import EvaluationConfig
from repro.eval.baselines import OUTLIER_NAMES
from repro.learn.gbm import GradientBoostingRegressor
from repro.learn.neighbors import clear_neighbor_cache, neighbor_cache_disabled
from repro.outliers import ALL_DETECTORS, CBLOF, MCD, SOS, XGBOD, IForest
from repro.outliers.ocsvm import OCSVMDetector
from repro.traces import AlibabaTraceGenerator, GoogleTraceGenerator

REPEATS = 3


def _best_times(arms):
    """Best wall time of each zero-argument callable over interleaved rounds."""
    best = [np.inf] * len(arms)
    for _ in range(REPEATS):
        for i, arm in enumerate(arms):
            t0 = time.perf_counter()
            arm()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# GBM training
# ---------------------------------------------------------------------------


def _regression(n=150, d=15):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, d))
    y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + rng.normal(scale=0.2, size=n)
    return X, y


def hist_vs_exact_gbm_fit():
    X, y = _regression()

    def fit(cls):
        return lambda: cls(n_estimators=60, max_depth=3).fit(X, y)

    t_exact, t_hist = _best_times([fit(ExactGBR), fit(GradientBoostingRegressor)])
    return t_exact / t_hist


def warm_vs_scratch_ckpt_refits():
    """Ten growing checkpoint refits: from scratch vs. warm-started."""
    X, y = _regression()
    sizes = np.linspace(15, 150, 10).astype(int)

    def scratch():
        for s in sizes:
            GradientBoostingRegressor(n_estimators=60).fit(X[:s], y[:s])

    def warm():
        m = GradientBoostingRegressor(n_estimators=60, warm_start=True)
        m.fit(X[: sizes[0]], y[: sizes[0]])
        for s in sizes[1:]:
            m.set_params(n_estimators=len(m.estimators_) + 15)
            m.fit(X[:s], y[:s])

    t_scratch, t_warm = _best_times([scratch, warm])
    return t_scratch / t_warm


# ---------------------------------------------------------------------------
# Detector scoring and refits over replay checkpoints
# ---------------------------------------------------------------------------


class _CheckpointRecorder(OnlineStragglerPredictor):
    """Replay passenger that keeps every checkpoint's detector input."""

    def __init__(self):
        self.matrices = []

    def update(self, X_fin, y_fin, X_run) -> None:
        self.matrices.append((np.vstack([X_fin, X_run]), len(X_fin)))

    def predict_stragglers(self, X_run) -> np.ndarray:
        return np.zeros(len(X_run), dtype=bool)


def _checkpoint_matrices():
    """The (X_all, n_fin) inputs the Table-3 detectors refit on."""
    sim = EvaluationConfig(n_checkpoints=10, random_state=0).make_simulator()
    matrices = []
    for gen in (GoogleTraceGenerator, AlibabaTraceGenerator):
        for job in gen(n_jobs=1, task_range=(40, 60), random_state=42).generate():
            recorder = _CheckpointRecorder()
            sim.run(job, recorder)
            matrices.extend(recorder.matrices)
    return matrices


#: The detectors that take a seed (the rest are deterministic).
_SEEDED = ("CBLOF", "IFOREST", "MCD", "OCSVM", "XGBOD")


def _sweep(name, cls, matrices):
    """Refit and score detector ``name`` as ``cls`` on every matrix; return
    the (refit, score) seconds."""
    kwargs = {"random_state": 0} if name in _SEEDED else {}
    times = np.zeros(2)
    for X, n_fin in matrices:
        clear_neighbor_cache()
        t0 = time.perf_counter()
        det = cls(contamination=0.1, **kwargs)
        if name == "XGBOD":
            det.fit(X, (np.arange(len(X)) >= n_fin).astype(np.int64))
        else:
            det.fit(X)
        t1 = time.perf_counter()
        det.decision_function(X)
        times += (t1 - t0, time.perf_counter() - t1)
    return times


@functools.lru_cache(maxsize=None)
def _detector_times():
    """(refit, score) seconds per arm, each detector's best of ``REPEATS``
    summed over the 14: ``{"reference": array, "shipping": array}``. The
    reference arm runs ``REFERENCE_DETECTORS`` (the shipping class where a
    detector has none) with the neighbor cache off."""
    matrices = _checkpoint_matrices()
    best = {
        arm: np.full((len(OUTLIER_NAMES), 2), np.inf)
        for arm in ("reference", "shipping")
    }
    for _ in range(REPEATS):
        for i, name in enumerate(OUTLIER_NAMES):
            with neighbor_cache_disabled():
                ref_cls = REFERENCE_DETECTORS.get(name, ALL_DETECTORS[name])
                ref = _sweep(name, ref_cls, matrices)
            ship = _sweep(name, ALL_DETECTORS[name], matrices)
            np.minimum(best["reference"][i], ref, out=best["reference"][i])
            np.minimum(best["shipping"][i], ship, out=best["shipping"][i])
    return {arm: t.sum(axis=0) for arm, t in best.items()}


def detector_refit():
    t = _detector_times()
    return t["reference"][0] / t["shipping"][0]


def detector_score():
    t = _detector_times()
    return t["reference"][1] / t["shipping"][1]


# ---------------------------------------------------------------------------
# Detector fit phase
# ---------------------------------------------------------------------------


def _outlier_rows(n, d=8):
    """Gaussian rows with the last n/20 (at least 5) shifted out, labelled 1."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, d))
    y = np.zeros(n, dtype=np.int64)
    y[-max(n // 20, 5) :] = 1
    X[y == 1] += 6.0
    return np.ascontiguousarray(X), y


class _RefCBLOF(CBLOF):
    """CBLOF on the sequential-restart, per-cluster-loop k-means."""

    def _fit(self, X):
        saved, cblof_mod.KMeans = cblof_mod.KMeans, _ReferenceKMeans
        try:
            super()._fit(X)
        finally:
            cblof_mod.KMeans = saved


class _RefOCSVM(OCSVMDetector):
    """The OCSVM detector on the per-sample SGD loop."""

    def _fit(self, X):
        saved, ocsvm_mod.OneClassSVM = ocsvm_mod.OneClassSVM, _ReferenceOneClassSVM
        try:
            super()._fit(X)
        finally:
            ocsvm_mod.OneClassSVM = saved


#: The six batched fit paths: name -> (reference, shipping) estimator
#: factories. SOS's shipping arm is the kNN binding SOS() runs from 1,024 rows.
FITS = {
    "IFOREST": (
        lambda: REFERENCE_FOREST_FITS["IFOREST"](contamination=0.1, random_state=0),
        lambda: IForest(contamination=0.1, random_state=0),
    ),
    "XGBOD": (
        lambda: REFERENCE_FOREST_FITS["XGBOD"](contamination=0.1, random_state=0),
        lambda: XGBOD(contamination=0.1, random_state=0),
    ),
    "MCD": (lambda: _ReferenceMCD(random_state=0), lambda: MCD(random_state=0)),
    "CBLOF": (lambda: _RefCBLOF(random_state=0), lambda: CBLOF(random_state=0)),
    "OCSVM": (
        lambda: _RefOCSVM(random_state=0),
        lambda: OCSVMDetector(random_state=0),
    ),
    "SOS": (_DenseSOS, _KnnSOS),
}


def detector_fit_aggregate(n_rows=1024):
    X, y = _outlier_rows(n_rows)

    def fit(make):
        def run():
            clear_neighbor_cache()
            make().fit(X, y)

        return run

    t_ref = t_ship = 0.0
    for make_ref, make_ship in FITS.values():
        best_ref, best_ship = _best_times([fit(make_ref), fit(make_ship)])
        t_ref += best_ref
        t_ship += best_ship
    return t_ref / t_ship


# ---------------------------------------------------------------------------
# Floors
# ---------------------------------------------------------------------------

#: ratio name -> (measurement, floor).
FLOORS = {
    "hist_vs_exact_gbm_fit": (hist_vs_exact_gbm_fit, 3.316),
    "warm_vs_scratch_ckpt_refits": (warm_vs_scratch_ckpt_refits, 1.484),
    "detector_score": (detector_score, 3.16),
    "detector_refit": (detector_refit, 1.5),
    "detector_fit_aggregate": (detector_fit_aggregate, 2.988),
}


@pytest.mark.parametrize("ratio", list(FLOORS))
def test_speed_floor(ratio):
    measure, floor = FLOORS[ratio]
    measured = measure()
    print(f"{ratio}: {measured:.3f}x (floor {floor}x)")
    assert measured >= floor, f"{ratio}: measured {measured:.3f}x < floor {floor}x"


def test_sos_knn_binding_memory_floor():
    n = 4096
    X, _ = _outlier_rows(n)
    clear_neighbor_cache()
    tracemalloc.start()
    try:
        det = SOS().fit(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(det.decision_scores_))
    ratio = n * n * 8 / peak
    print(f"sos_knn_memory: {ratio:.1f}x (floor 10x)")
    assert ratio >= 10.0, f"sos_knn_memory: measured {ratio:.1f}x < floor 10x"
