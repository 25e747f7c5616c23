"""Exact k-nearest-neighbour search in NumPy.

Shared by the KNN, LOF, COF, SOD, ABOD, LSCP and SOS outlier detectors and
XGBOD's detector pool. Every query goes through :meth:`KnnIndex.query`, one
exact kernel:

- **Candidates.** One matmul per block of query rows gives the Gram form
  ``|x|^2 - 2 q.x`` of every (query, training) pair, both rows centred at
  the training mean: the squared distance less the query's own ``|q|^2``.
  ``np.partition`` finds each query's k-th smallest value, and every
  training row within three rounding margins of it is a candidate. The
  margin, ``(4d + 32) u (|q|^2 + max |x|^2)`` with ``u = 2**-53``, bounds
  the Gram form's error against the exact distance, so the candidates hold
  every row that ties with or beats the k-th neighbour (EXPERIMENTS.md,
  "Exact neighbour search"). Near overflow the bound fails, and every
  training row is a candidate.
- **Exact distances.** Each candidate's distance is recomputed with the
  arithmetic of SciPy's KD-tree: four running sums over the dimensions in
  groups of four, added left to right, then the remaining dimensions in
  order, then ``sqrt``. The distances equal a KD-tree query's bit for bit
  (``tests/test_neighbor_kernel.py``).
- **Order.** Neighbours come sorted by (distance, training-row index), a
  total order, so a narrower query is exactly a prefix of a wider one.

Query rows are taken ``_BLOCK_ELEMENTS // n`` at a time, so the Gram block
stays at 2 MiB whatever the matrix size.

Besides the :class:`NearestNeighbors` estimator this module hosts a small
process-local :class:`NeighborCache`. Every unsupervised detector refit on a
replay checkpoint queries the *same* feature matrix — often several times
(once while fitting, once while scoring the training data, and LSCP's LOF
pool repeats the whole exercise per pool member), and every *method* replayed
on the same job sees bitwise-equal checkpoint matrices (one simulator seed
per job). The cache keys index builds on array **content** and raw kNN query
results on array identity, so all of those consumers share one index and
one sorted neighbor list per matrix — across detectors within a checkpoint
and across method replays of one job — and narrower queries slice the
widest cached result instead of querying again.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Optional, Tuple

import numpy as np

from repro.learn.base import BaseEstimator
from repro.utils.validation import (
    check_array,
    check_is_fitted,
    check_n_features,
    check_positive_int,
)

#: LRU bounds of :class:`NeighborCache`: indexes (each pins its matrix) and
#: raw kNN query results.
_MAX_INDEXES = 8
_MAX_QUERIES = 32
#: Elements of one block of the Gram matrix (query rows x training rows),
#: and of one block of candidate coordinates.
_BLOCK_ELEMENTS = 1 << 18
#: Unit roundoff of float64, and its smallest normal number.
_U = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


def _sq_distances(diff: np.ndarray) -> np.ndarray:
    """Row sums of ``diff**2`` as SciPy's KD-tree adds them (consumes ``diff``).

    Four running sums take the dimensions in groups of four; they are added
    left to right, then the remaining dimensions one by one.
    """
    sq = np.multiply(diff, diff, out=diff)
    d = sq.shape[1]
    full = d - d % 4
    if full:
        acc = sq[:, :4]
        for j in range(4, full, 4):
            acc = acc + sq[:, j : j + 4]
        total = acc[:, 0] + acc[:, 1]
        total += acc[:, 2]
        total += acc[:, 3]
    else:
        total = np.zeros(sq.shape[0])
    for j in range(full, d):
        total += sq[:, j]
    return total


def _nearest(
    X: np.ndarray, Q: np.ndarray, mask: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each query row's first ``k`` candidates (``mask`` row, training rows
    as columns) in (distance, index) order, as ``(dist, idx)``."""
    b, n = mask.shape
    counts = np.count_nonzero(mask, axis=1)
    rows, cols = np.divmod(np.flatnonzero(mask), n)
    sq = np.empty(cols.size)
    chunk = _BLOCK_ELEMENTS // max(X.shape[1], 1)
    for lo in range(0, cols.size, chunk):
        part = slice(lo, lo + chunk)
        sq[part] = _sq_distances(X[cols[part]] - Q[rows[part]])
    cand = np.sqrt(sq, out=sq)
    # Candidates come row by row in index order, so a stable sort by
    # distance orders each row by (distance, index).
    width = int(counts.max())
    if cols.size == b * width:
        dist, idx = cand.reshape(b, width), cols.reshape(b, width)
    else:
        # Pad the rows to one width; the pads sort after every candidate.
        pos = np.arange(cols.size) - (np.cumsum(counts) - counts)[rows]
        dist = np.full((b, width), np.inf)
        dist[rows, pos] = cand
        idx = np.zeros((b, width), dtype=np.intp)
        idx[rows, pos] = cols
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    at = np.arange(b)[:, None]
    return dist[at, order], idx[at, order]


class KnnIndex:
    """Exact k-nearest-neighbour search over one training matrix."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self._mean = X.mean(axis=0)
        Xc = X - self._mean
        self._sq_norms = np.einsum("ij,ij->i", Xc, Xc)
        self._max_sq_norm = float(self._sq_norms.max())
        self._minus_2_xc_t = np.ascontiguousarray(-2.0 * Xc.T)

    def query(self, Q: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` (1 <= k <= n) nearest training rows of each row of
        ``Q``, as ``(dist, idx)``, each (len(Q), k), sorted by (distance,
        index)."""
        n, d = self.X.shape
        dist = np.empty((Q.shape[0], k))
        idx = np.empty((Q.shape[0], k), dtype=np.intp)
        Qc = Q - self._mean
        q_sq_norms = np.einsum("ij,ij->i", Qc, Qc)
        # Three rounding margins past each row's k-th Gram value.
        reach = 3 * (4 * d + 32) * _U * (q_sq_norms + self._max_sq_norm) + _TINY
        # Near overflow the Gram form bounds nothing: every row is a candidate.
        bounded = math.isfinite(8.0 * (float(q_sq_norms.max()) + self._max_sq_norm))
        step = max(1, _BLOCK_ELEMENTS // n)
        for start in range(0, Q.shape[0], step):
            block = slice(start, start + step)
            if bounded:
                gram = Qc[block] @ self._minus_2_xc_t
                gram += self._sq_norms
                cut = np.partition(gram, k - 1, axis=1)[:, k - 1] + reach[block]
                mask = gram <= cut[:, None]
            else:
                mask = np.ones((Qc[block].shape[0], n), dtype=bool)
            dist[block], idx[block] = _nearest(self.X, Q[block], mask, k)
        return dist, idx


class NeighborCache:
    """Content-keyed index cache plus identity-keyed kNN query cache.

    **Indexes** are keyed on array *content* (shape + dtype + BLAKE2 digest,
    with an exact ``np.array_equal`` guard against digest collisions, so a
    served index is always an index over bit-identical data). An identity
    side-index makes repeated lookups of the same live object skip the
    hashing. Content keying is what lets independent replays share builds:
    every method replaying the same job sees bitwise-equal observation
    matrices at the same checkpoint (same simulator seed), so the harness,
    which replays every method of a job together, builds each checkpoint's
    index once per *(job, checkpoint)* rather than once per method.

    **Query results** are keyed on ``id()`` of the participating arrays and
    guarded by weak references: a hit requires the cached reference to still
    point at the *same live object*, so recycled ids or garbage-collected
    matrices can never alias. Results are cached at the widest ``k``
    requested so far for a (train, query) pair; narrower requests return
    slices. Neighbours are sorted by (distance, index), so a prefix of a
    wider query *is* the narrower query, ties included.

    Returned arrays are read-only views of cache storage; callers that want
    to modify them must copy (in-place writes would otherwise corrupt every
    later hit).

    The cache is process-local and LRU-bounded — index entries pin their
    arrays, so memory stays proportional to ``_MAX_INDEXES`` checkpoint-sized
    matrices.
    """

    def __init__(self):
        self._trees: OrderedDict = OrderedDict()  # content key -> (X, index)
        self._tree_ids: OrderedDict = OrderedDict()  # id(X) -> (weakref, key)
        self._queries: OrderedDict = OrderedDict()
        self.tree_hits = 0
        self.tree_misses = 0
        #: Indexes actually constructed (the regression-test counter:
        #: equal-valued matrices must not rebuild).
        self.tree_builds = 0
        #: Hits served to a *different* array object with equal content.
        self.tree_value_hits = 0
        self.query_hits = 0
        self.query_misses = 0

    # -- indexes --------------------------------------------------------
    @staticmethod
    def _content_key(X: np.ndarray) -> Tuple:
        data = X if X.flags["C_CONTIGUOUS"] else np.ascontiguousarray(X)
        digest = hashlib.blake2b(data.data, digest_size=16).digest()
        return (X.shape, X.dtype.str, digest)

    def _remember_identity(self, X: np.ndarray, key: Tuple) -> None:
        self._tree_ids[id(X)] = (weakref.ref(X), key)
        self._tree_ids.move_to_end(id(X))
        while len(self._tree_ids) > 4 * _MAX_INDEXES:
            self._tree_ids.popitem(last=False)

    def tree(self, X: np.ndarray) -> KnnIndex:
        """Return a (possibly shared) :class:`KnnIndex` over data equal to
        ``X``."""
        ident = self._tree_ids.get(id(X))
        if ident is not None and ident[0]() is X:
            entry = self._trees.get(ident[1])
            if entry is not None:
                self.tree_hits += 1
                self._trees.move_to_end(ident[1])
                return entry[1]
        key = self._content_key(X)
        entry = self._trees.get(key)
        if entry is not None and np.array_equal(entry[0], X):
            self.tree_hits += 1
            if entry[0] is not X:
                self.tree_value_hits += 1
            self._trees.move_to_end(key)
            self._remember_identity(X, key)
            return entry[1]
        self.tree_misses += 1
        self.tree_builds += 1
        index = KnnIndex(X)
        self._trees[key] = (X, index)
        self._trees.move_to_end(key)
        self._remember_identity(X, key)
        while len(self._trees) > _MAX_INDEXES:
            self._trees.popitem(last=False)
        return index

    # -- raw queries ----------------------------------------------------
    def query(
        self, index: KnnIndex, fit_X: np.ndarray, X: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``index.query(X, k)`` with caching; returns ``(dist, idx)``."""
        key = (id(fit_X), id(X))
        entry = self._queries.get(key)
        if (
            entry is not None
            and entry[0]() is fit_X
            and entry[1]() is X
            and entry[2] >= k
        ):
            self.query_hits += 1
            self._queries.move_to_end(key)
            return entry[3][:, :k], entry[4][:, :k]
        self.query_misses += 1
        dist, idx = index.query(X, k)
        dist.setflags(write=False)
        idx.setflags(write=False)
        self._queries[key] = (weakref.ref(fit_X), weakref.ref(X), k, dist, idx)
        self._queries.move_to_end(key)
        while len(self._queries) > _MAX_QUERIES:
            self._queries.popitem(last=False)
        return dist, idx

    def clear(self) -> None:
        self._trees.clear()
        self._tree_ids.clear()
        self._queries.clear()


#: Process-global default cache; ``None`` disables caching entirely.
_neighbor_cache: Optional[NeighborCache] = NeighborCache()


def get_neighbor_cache() -> Optional[NeighborCache]:
    """The active shared cache, or ``None`` when caching is disabled."""
    return _neighbor_cache


def set_neighbor_cache(cache: Optional[NeighborCache]) -> Optional[NeighborCache]:
    """Install ``cache`` (or ``None`` to disable); returns the previous one."""
    global _neighbor_cache
    previous = _neighbor_cache
    _neighbor_cache = cache
    return previous


def clear_neighbor_cache() -> None:
    """Drop all cached indexes and query results (no-op when disabled)."""
    if _neighbor_cache is not None:
        _neighbor_cache.clear()


@contextmanager
def neighbor_cache_disabled():
    """Context manager that turns the shared cache off (benchmark baseline)."""
    previous = set_neighbor_cache(None)
    try:
        yield
    finally:
        set_neighbor_cache(previous)


class NearestNeighbors(BaseEstimator):
    """k-nearest-neighbor index.

    ``kneighbors`` can exclude each query point itself when querying the
    training set (``exclude_self=True``), which every *unsupervised* outlier
    detector needs when scoring its own training data. ``exclude_self``
    presumes the query rows are row-aligned with the training matrix (the
    caller should establish that via :meth:`is_self_query`).
    """

    def __init__(self, n_neighbors: int = 5):
        self.n_neighbors = n_neighbors

    def fit(self, X, y=None) -> "NearestNeighbors":
        check_positive_int(self.n_neighbors, "n_neighbors")
        X = check_array(X)
        self._fit_X_ = X
        cache = get_neighbor_cache()
        self.index_ = cache.tree(X) if cache is not None else KnnIndex(X)
        self.n_features_in_ = X.shape[1]
        return self

    def is_self_query(self, X) -> bool:
        """True when ``X`` is the training matrix (identity or equal values).

        The single source of truth for the ``exclude_self`` decision every
        kNN-family detector makes when scoring; identity is the fast path
        (``BaseDetector.fit`` passes the same validated array to ``_fit``
        and ``_score``), value equality covers callers that re-validate.
        """
        check_is_fitted(self, ["index_"])
        fit_X = self._fit_X_
        if X is fit_X:
            return True
        X = np.asarray(X)
        return X.shape == fit_X.shape and np.array_equal(X, fit_X)

    def warm(self, X=None, n_neighbors: Optional[int] = None) -> None:
        """Prime the shared cache with a raw query at the given width.

        Lets a caller that will issue several narrower queries against the
        same (train, query) pair — e.g. LSCP's LOF pool — pay for one wide
        query and have every subsequent request slice it. No-op when
        the cache is disabled.
        """
        check_is_fitted(self, ["index_"])
        if get_neighbor_cache() is None:
            return
        X = self._fit_X_ if X is None else check_array(X)
        k = self.n_neighbors if n_neighbors is None else int(n_neighbors)
        self._raw_query(X, min(k, self._fit_X_.shape[0]))

    def _raw_query(self, X: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        cache = get_neighbor_cache()
        if cache is None:
            return self.index_.query(X, k)
        return cache.query(self.index_, self._fit_X_, X, k)

    def kneighbors(
        self, X=None, n_neighbors: int = None, exclude_self: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return (distances, indices), each (n_queries, k).

        With ``X=None`` queries the training set itself with
        ``exclude_self=True`` implied.
        """
        check_is_fitted(self, ["index_"])
        k = self.n_neighbors if n_neighbors is None else int(n_neighbors)
        if X is None:
            X = self._fit_X_
            exclude_self = True
        else:
            X = check_array(X)
            check_n_features(X, self.n_features_in_)
        n_train = self._fit_X_.shape[0]
        k_query = min(k + (1 if exclude_self else 0), n_train)
        dist, idx = self._raw_query(X, k_query)
        if exclude_self:
            dist, idx = _drop_self_column(dist, idx, k)
        else:
            dist = dist[:, :k]
            idx = idx[:, :k]
        return dist, idx


def _drop_self_column(
    dist: np.ndarray, idx: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Remove each query row's own training index from its neighbor list.

    The query point sits at distance zero, but with duplicated training
    points the tie ordering may place a *duplicate* first — dropping column
    0 unconditionally would discard a legitimate zero-distance neighbor and
    keep the query point itself. Instead, drop the column whose index equals
    the row's own index wherever it appears; rows whose own index was pushed
    out of the widened query (more duplicates than columns) drop the
    farthest column so every row keeps its k nearest non-self candidates.
    """
    n, kq = idx.shape
    if kq <= 1:
        return dist[:, :0], idx[:, :0]
    rows = np.arange(n)
    self_pos = idx == rows[:, None]
    has_self = self_pos.any(axis=1)
    drop_col = np.where(has_self, self_pos.argmax(axis=1), kq - 1)
    keep = np.ones((n, kq), dtype=bool)
    keep[rows, drop_col] = False
    dist = dist[keep].reshape(n, kq - 1)[:, :k]
    idx = idx[keep].reshape(n, kq - 1)[:, :k]
    return dist, idx
