"""Isolation Forest (Liu, Ting & Zhou, ICDM 2008).

Each tree isolates points by recursive random (feature, threshold) splits on
a subsample; anomalies isolate in few splits. The score is the standard
``2^(−E[h(x)] / c(ψ))`` with the average-path-length normalizer c.

Scoring is packed: every tree's flat node arrays are concatenated into one
node table with per-tree root offsets, and all trees × all samples advance
through a single vectorized frontier loop whose iteration count is the
maximum tree depth — not the tree count.

Building is *level-synchronous*: every active node at a given depth is
expanded across **all** trees in one vectorized pass. Per-node min/max come
from sorted-index ``np.minimum.reduceat`` / ``np.maximum.reduceat``
segments, and the per-node feature/threshold draws come from
counter-seeded SplitMix64 streams keyed on ``(seed, tree, node)``, so a
same-seed build is bit-identical run-to-run regardless of how the level
frontier is laid out. The loop count is the maximum tree depth (⌈log₂ψ⌉),
not the node count. Per-tree subsamples are drawn by sequential
``rng.choice``, as in the original per-node builder, which survives as
the loop reference in ``tests/test_detector_vectorization.py``;
``tests/test_speed_floors.py`` times the two builds against each other.
"""

from __future__ import annotations


import numpy as np

from repro.outliers.base import BaseDetector
from repro.utils.validation import check_positive_int, check_random_state

_EULER_GAMMA = 0.5772156649015329
#: Subsample size per tree (ψ; the paper's default 256), clipped to the
#: row count.
_MAX_SAMPLES = 256


def average_path_length(n) -> np.ndarray:
    """c(n): expected path length of an unsuccessful BST search."""
    n = np.asarray(n, dtype=np.float64)
    out = np.zeros_like(n)
    mask = n > 2
    out[mask] = 2.0 * (np.log(n[mask] - 1.0) + _EULER_GAMMA) - 2.0 * (
        n[mask] - 1.0
    ) / n[mask]
    out[n == 2] = 1.0
    return out


_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)


def _counter_uniform(seed: np.uint64, counter: np.ndarray) -> np.ndarray:
    """SplitMix64 counter stream → uniforms in [0, 1), one per counter.

    Purely a function of ``(seed, counter)``: the batched builder keys the
    counter on the node's global id, so the draw a node sees never depends
    on which other nodes share its level frontier — that is what makes
    same-seed batched builds bit-identical run-to-run.
    """
    with np.errstate(over="ignore"):
        z = (counter + seed) * _SM_GAMMA + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_MIX1
        z = (z ^ (z >> np.uint64(27))) * _SM_MIX2
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def _build_forest_batched(X: np.ndarray, idx: np.ndarray, max_depth: int, seed: int):
    """Level-synchronous build of all trees at once.

    Parameters
    ----------
    X : (n, d) data matrix.
    idx : (T, psi) per-tree subsample indices.
    max_depth : depth cap (⌈log₂ψ⌉).
    seed : integer keying the counter-seeded split draws.

    Returns ``(feature, threshold, left, right, size, n_nodes)`` where the
    first five are ``(T, cap)`` node matrices and ``n_nodes`` gives each
    tree's used prefix.

    Every depth iteration segments the *live* sample rows of all trees by
    their current node (one stable argsort), computes each node's per-feature
    min/max with ``reduceat`` over the sorted rows, draws each splittable
    node's feature and threshold from its counter stream, and routes rows to
    the freshly allocated children. Total Python-level iterations:
    ``max_depth``, independent of tree count and node count.
    """
    T, psi = idx.shape
    d = X.shape[1]
    cap = max(1, 2 * psi - 1)
    feature = np.full((T, cap), -1, dtype=np.int64)
    threshold = np.full((T, cap), np.nan, dtype=np.float64)
    left = np.full((T, cap), -1, dtype=np.int64)
    right = np.full((T, cap), -1, dtype=np.int64)
    size = np.zeros((T, cap), dtype=np.int64)
    size[:, 0] = psi
    n_nodes = np.ones(T, dtype=np.int64)
    seed64 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    if psi > 1 and max_depth > 0:
        flat = X[idx.ravel()]  # (T*psi, d)
        tree_of = np.repeat(np.arange(T, dtype=np.int64), psi)
        node_of = np.zeros(T * psi, dtype=np.int64)
        live = np.ones(T * psi, dtype=bool)

        for _ in range(max_depth):
            rows = np.nonzero(live)[0]
            if rows.size == 0:
                break
            seg = tree_of[rows] * cap + node_of[rows]
            order = np.argsort(seg, kind="stable")
            rows = rows[order]
            seg = seg[order]
            starts = np.nonzero(np.r_[True, seg[1:] != seg[:-1]])[0]
            seg_ids = seg[starts]  # global node ids
            counts = np.diff(np.r_[starts, seg.size])
            sub = flat[rows]
            mins = np.minimum.reduceat(sub, starts, axis=0)  # (m, d)
            maxs = np.maximum.reduceat(sub, starts, axis=0)
            cand = maxs > mins
            ncand = cand.sum(axis=1)
            can_split = (counts > 1) & (ncand > 0)

            m = seg_ids.shape[0]
            # Counter-seeded draws: two streams per node (feature, threshold).
            base = seg_ids.astype(np.uint64) << np.uint64(1)
            u_feat = _counter_uniform(seed64, base)
            u_thr = _counter_uniform(seed64, base + np.uint64(1))
            # j-th candidate feature, j uniform over the candidate count.
            j = np.minimum((u_feat * ncand).astype(np.int64), np.maximum(ncand - 1, 0))
            cum = np.cumsum(cand, axis=1)
            f = np.argmax(cum > j[:, None], axis=1)
            seg_rows = np.arange(m)
            lo = mins[seg_rows, f]
            hi = maxs[seg_rows, f]
            thr = lo + (hi - lo) * u_thr

            split = np.nonzero(can_split)[0]
            if split.size:
                t_split = seg_ids[split] // cap
                n_split = seg_ids[split] % cap
                # Children get consecutive ids per tree, in sorted node
                # order: rank each splitting segment within its tree.
                first = np.nonzero(np.r_[True, t_split[1:] != t_split[:-1]])[0]
                grp_sizes = np.diff(np.r_[first, t_split.size])
                grp = np.repeat(np.arange(first.size), grp_sizes)
                rank = np.arange(t_split.size) - first[grp]
                l_id = n_nodes[t_split] + 2 * rank
                r_id = l_id + 1
                feature[t_split, n_split] = f[split]
                threshold[t_split, n_split] = thr[split]
                left[t_split, n_split] = l_id
                right[t_split, n_split] = r_id
                n_nodes[t_split[first]] += 2 * grp_sizes

                # Route live rows of splitting nodes to their children.
                child_l = np.full(m, -1, dtype=np.int64)
                child_r = np.full(m, -1, dtype=np.int64)
                child_l[split] = l_id
                child_r[split] = r_id
                seg_of_row = np.repeat(np.arange(m), counts)
                in_split = can_split[seg_of_row]
                rr = rows[in_split]
                sr = seg_of_row[in_split]
                go_left = flat[rr, f[sr]] <= thr[sr]
                node_of[rr] = np.where(go_left, child_l[sr], child_r[sr])
                # rr is seg-sorted, so each splitting segment is contiguous:
                # its left-child size is a reduceat sum of go_left.
                split_starts = np.nonzero(np.r_[True, sr[1:] != sr[:-1]])[0]
                n_left = np.add.reduceat(go_left.astype(np.int64), split_starts)
                size[t_split, l_id] = n_left
                size[t_split, r_id] = counts[split] - n_left
                live[rows[~in_split]] = False
            else:
                live[rows] = False

    return feature, threshold, left, right, size, n_nodes


class _PackedForest:
    """All trees' node arrays concatenated, children shifted by tree offset."""

    __slots__ = ("feature", "threshold", "left", "right", "size", "roots")

    @classmethod
    def from_matrices(cls, feature, threshold, left, right, size, n_nodes):
        """Pack the builder's ``(T, cap)`` node matrices into one table."""
        self = cls.__new__(cls)
        cap = feature.shape[1]
        mask = np.arange(cap) < n_nodes[:, None]
        offsets = np.concatenate([[0], np.cumsum(n_nodes)[:-1]])
        shift = offsets[:, None]
        self.roots = offsets
        self.feature = feature[mask]
        self.threshold = threshold[mask]
        self.left = np.where(left >= 0, left + shift, -1)[mask]
        self.right = np.where(right >= 0, right + shift, -1)[mask]
        self.size = size[mask]
        return self

    def path_lengths(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) isolation depths via one frontier loop."""
        n_trees = self.roots.shape[0]
        n = X.shape[0]
        node = np.repeat(self.roots, n)
        sample = np.tile(np.arange(n), n_trees)
        depth = np.zeros(n_trees * n, dtype=np.float64)
        active = self.feature[node] != -1
        while np.any(active):
            frontier = np.nonzero(active)[0]
            cur = node[frontier]
            f = self.feature[cur]
            go_left = X[sample[frontier], f] <= self.threshold[cur]
            nxt = np.where(go_left, self.left[cur], self.right[cur])
            node[frontier] = nxt
            depth[frontier] += 1.0
            active[frontier] = self.feature[nxt] != -1
        # Leaves holding >1 point contribute the expected extra depth.
        depth += average_path_length(self.size[node])
        return depth.reshape(n_trees, n)


class IForest(BaseDetector):
    """Isolation forest.

    Parameters
    ----------
    n_estimators : int
        Number of trees, each on ``_MAX_SAMPLES`` rows.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        contamination: float = 0.1,
        random_state=None,
    ):
        super().__init__(contamination=contamination)
        self.n_estimators = n_estimators
        self.random_state = random_state

    def _fit(self, X: np.ndarray) -> None:
        check_positive_int(self.n_estimators, "n_estimators")
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        psi = min(_MAX_SAMPLES, n)
        max_depth = int(np.ceil(np.log2(max(psi, 2))))
        # The split draws are counter-seeded; one generator draw keys them
        # to the caller's seed. Subsamples then follow the sequential
        # rng.choice stream.
        seed = int(rng.integers(0, np.iinfo(np.int64).max))
        idx = np.stack(
            [
                rng.choice(n, size=psi, replace=False)
                for _ in range(self.n_estimators)
            ]
        )
        mats = _build_forest_batched(X, idx, max_depth, seed)
        self.forest_ = _PackedForest.from_matrices(*mats)
        self._psi = psi

    def _score(self, X: np.ndarray) -> np.ndarray:
        n_trees = self.forest_.roots.shape[0]
        mean_depth = self.forest_.path_lengths(X).sum(axis=0) / n_trees
        c = float(average_path_length(np.array([self._psi]))[0])
        c = max(c, 1e-12)
        return np.power(2.0, -mean_depth / c)
