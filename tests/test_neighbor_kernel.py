"""The exact kNN kernel against ``scipy.spatial.cKDTree``.

Every kNN-family detector queries ``learn.neighbors.KnnIndex``. Its
distances must equal a KD-tree query's bit for bit, and its neighbours come
in (distance, training-row index) order, so they equal the KD-tree's
wherever no exact distance tie straddles a cut, and a narrower query is a
prefix of a wider one. The fuzz covers 1–600 rows, 1–16 features, every k,
feature scales from 1e-3 to 1e6, duplicated rows and integer grids.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

import repro.learn.neighbors as neighbors
from repro.learn.neighbors import KnnIndex

KINDS = ("normal", "grid", "duplicated", "offset")


def _draw(gen, kind):
    n = int(gen.integers(1, 601))
    d = int(gen.integers(1, 17))
    scale = 10.0 ** gen.uniform(-3.0, 6.0)
    if kind == "grid":
        X = gen.integers(-3, 4, size=(n, d)).astype(float)
    else:
        X = gen.normal(size=(n, d))
    if kind == "duplicated":
        X[n // 2 :] = X[: n - n // 2]
    if kind == "offset":
        X += 1e3
    X *= scale
    if gen.random() < 0.5:
        return X, X
    Q = X[::2] + gen.normal(size=X[::2].shape) * X.std()
    if kind == "grid":
        Q = np.round(Q / scale) * scale
    return X, Q


def _reference(X, Q, k):
    dist, idx = cKDTree(X).query(Q, k=k)
    return dist.reshape(len(Q), k), idx.reshape(len(Q), k)


def _assert_matches_reference(X, Q, k, dist, idx):
    n = X.shape[0]
    ref_dist, ref_idx = _reference(X, Q, k)
    full_dist, full_idx = _reference(X, Q, n)
    assert dist.tobytes() == ref_dist.tobytes(), "distances differ"
    # Every row's neighbours are the first k in (distance, index) order.
    order = np.lexsort((full_idx, full_dist), axis=1)[:, :k]
    np.testing.assert_array_equal(idx, np.take_along_axis(full_idx, order, axis=1))
    # Where a distance is held by one training row only, so no tie can
    # straddle a cut, the KD-tree's index is ours.
    tied = np.zeros(full_dist.shape, dtype=bool)
    same = full_dist[:, 1:] == full_dist[:, :-1]
    tied[:, 1:] |= same
    tied[:, :-1] |= same
    untied = ~tied[:, :k]
    np.testing.assert_array_equal(idx[untied], ref_idx[untied])
    # Tied neighbours come in index order.
    equal = dist[:, 1:] == dist[:, :-1]
    assert np.all(idx[:, 1:][equal] > idx[:, :-1][equal])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_matches_kd_tree(kind, seed):
    gen = np.random.default_rng([KINDS.index(kind), seed])
    X, Q = _draw(gen, kind)
    n = X.shape[0]
    k = int(gen.integers(1, n + 1))
    index = KnnIndex(X)
    dist, idx = index.query(Q, k)
    _assert_matches_reference(X, Q, k, dist, idx)
    # A narrower query is exactly a prefix of this one.
    narrow = int(gen.integers(1, k + 1))
    dist_k, idx_k = index.query(Q, narrow)
    assert dist_k.tobytes() == np.ascontiguousarray(dist[:, :narrow]).tobytes()
    assert idx_k.tobytes() == np.ascontiguousarray(idx[:, :narrow]).tobytes()


def test_blocked_path_equals_one_block(monkeypatch):
    """Many query blocks and candidate chunks give the one-block answer."""
    gen = np.random.default_rng(7)
    X = np.vstack([gen.normal(size=(150, 6))] * 2)
    Q = np.vstack([X[::3], X[::5] + 0.1])
    one_block = KnnIndex(X).query(Q, 9)
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", 4 * X.shape[0] + 1)
    dist, idx = KnnIndex(X).query(Q, 9)
    assert dist.tobytes() == one_block[0].tobytes()
    assert idx.tobytes() == one_block[1].tobytes()
    _assert_matches_reference(X, Q, 9, dist, idx)


def test_overflowing_norms_still_give_k_neighbours():
    """Squared norms that overflow void the Gram margin, so every training
    row is a candidate and the answer is still k rows in index order."""
    X = np.array([[1e160, 0.0], [0.0, 0.0], [-1e160, 0.0], [0.0, 1.0]])
    dist, idx = KnnIndex(X).query(X, 3)
    np.testing.assert_array_equal(idx, [[0, 1, 2], [1, 3, 0], [2, 0, 1], [3, 1, 0]])
    assert np.isinf(dist[:, 2]).all() and dist[1, 1] == 1.0
