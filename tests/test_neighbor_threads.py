"""KD-tree queries run on the calling thread.

Every kNN-family detector reaches ``cKDTree.query`` through
``learn.neighbors._raw_tree_query``. Its matrices hold tens of rows, so a
query pool's thread starts would cost more than the query itself; the
replay harness parallelises across processes instead.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.learn.neighbors import NeighborCache, set_neighbor_cache
from repro.outliers import ABOD, COF, LOF, LSCP, SOD, XGBOD, KNNDetector

DETECTORS = {
    "KNN": KNNDetector,
    "LOF": LOF,
    "COF": COF,
    "SOD": SOD,
    "ABOD": ABOD,
    "LSCP": LSCP,
    "XGBOD": lambda: XGBOD(random_state=0),
}


@pytest.fixture
def no_threads(monkeypatch):
    """Make any thread start raise, with an empty neighbor cache so every
    query really reaches the tree."""

    def refuse(self):
        raise AssertionError(f"thread started: {self!r}")

    previous = set_neighbor_cache(NeighborCache())
    monkeypatch.setattr(threading.Thread, "start", refuse)
    yield
    set_neighbor_cache(previous)


@pytest.mark.parametrize("name", list(DETECTORS))
def test_detector_fits_and_scores_without_threads(name, outlier_data, no_threads):
    X, y = outlier_data
    # Unsupervised detectors ignore y; XGBOD needs it.
    det = DETECTORS[name]().fit(X, y)
    scores = det.decision_function(X[::3] + 0.25)
    assert np.all(np.isfinite(scores))


def test_thread_start_is_refused(no_threads):
    """The fixture really blocks a worker pool's thread starts."""
    tree = cKDTree(np.arange(12.0).reshape(6, 2))
    with pytest.raises(AssertionError, match="thread started"):
        tree.query(np.zeros((4, 2)), k=2, workers=-1)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_calling_thread_query_equals_worker_pool(k):
    """Each query row is answered on its own, so where it runs changes no
    bit, ties between duplicated rows included."""
    gen = np.random.default_rng(k)
    X = gen.normal(size=(90, 9))
    X[45:] = X[:45]
    X[::7, 0] = 0.0
    tree = cKDTree(X)
    for Q in (X, X[::2] + 0.5):
        dist, idx = tree.query(Q, k=k)
        dist_pool, idx_pool = tree.query(Q, k=k, workers=-1)
        assert dist.tobytes() == dist_pool.tobytes()
        assert idx.tobytes() == idx_pool.tobytes()
