"""Locally Selective Combination in Parallel outlier ensembles
(Zhao et al., SDM 2019).

LSCP keeps a pool of base detectors (here LOF with varied neighborhood
sizes, the reference configuration of the paper). For each test point it
defines a local region via kNN in the training set, builds a
pseudo-ground-truth there (the detectors' maximum score per point), and
selects the detector whose local scores correlate best with it; that
detector scores the test point (LSCP_A variant averages the top detectors).

The local-competence Pearson correlations are vectorized: the per-point
region scores are gathered into an ``(n, region, n_detectors)`` tensor and
all correlations fall out of a single ``einsum``. The LOF pool shares one
KD-tree over the training matrix, primed once at the widest neighborhood so
each pool member slices the same cached query.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.learn.neighbors import NearestNeighbors
from repro.outliers.base import BaseDetector
from repro.outliers.lof import LOF
from repro.utils.validation import check_positive_int


def _zscore(a: np.ndarray) -> np.ndarray:
    std = a.std(axis=0)
    std[std == 0.0] = 1.0
    return (a - a.mean(axis=0)) / std


class LSCP(BaseDetector):
    """Locally selective combination of LOF detectors.

    Parameters
    ----------
    neighbor_sizes : list of int or None
        Neighborhood sizes of the LOF pool; defaults to [5, 10, 15, 20, 30].
    local_region_size : int
        kNN region used for local competence estimation.
    top_k : int
        Number of best-correlated detectors averaged per point.
    """

    def __init__(
        self,
        neighbor_sizes: Optional[List[int]] = None,
        local_region_size: int = 30,
        top_k: int = 2,
        contamination: float = 0.1,
    ):
        super().__init__(contamination=contamination)
        self.neighbor_sizes = neighbor_sizes
        self.local_region_size = local_region_size
        self.top_k = top_k

    def _fit(self, X: np.ndarray) -> None:
        sizes = self.neighbor_sizes or [5, 10, 15, 20, 30]
        sizes = [min(s, X.shape[0] - 1) for s in sizes]
        sizes = sorted({s for s in sizes if s >= 1})
        if not sizes:
            raise ValueError("LSCP needs at least 2 samples.")
        check_positive_int(self.local_region_size, "local_region_size")
        region = min(self.local_region_size, X.shape[0] - 1)
        self._kmax_ = max(sizes[-1], max(region, 1))
        # One KD-tree serves the whole pool: the region index is built first
        # and primed at the widest neighborhood (+1 for the self column), so
        # every LOF's narrower fit/score query slices the same cached result.
        self.region_nn_ = NearestNeighbors(n_neighbors=max(region, 1)).fit(X)
        self.region_nn_.warm(n_neighbors=self._kmax_ + 1)
        self.detectors_ = [
            LOF(n_neighbors=s, contamination=self.contamination).fit(X)
            for s in sizes
        ]
        # Standardized training score matrix (n_train, n_detectors).
        train_scores = np.column_stack(
            [d.decision_scores_ for d in self.detectors_]
        )
        self._train_scores_z_ = _zscore(train_scores)
        # Pseudo ground truth: max standardized score across the pool.
        self._pseudo_ = self._train_scores_z_.max(axis=1)

    def _score(self, X: np.ndarray) -> np.ndarray:
        exclude_self = self.region_nn_.is_self_query(X)
        self.region_nn_.warm(X, n_neighbors=self._kmax_ + 1)
        test_scores = np.column_stack(
            [d.decision_function(X) for d in self.detectors_]
        )
        test_scores_z = _zscore(test_scores)
        _, region_idx = self.region_nn_.kneighbors(X, exclude_self=exclude_self)
        top_k = min(self.top_k, len(self.detectors_))
        # Pearson correlation of every detector's region scores against the
        # pseudo ground truth, for all test points at once.
        pseudo = self._pseudo_[region_idx]                     # (n, r)
        pseudo_c = pseudo - pseudo.mean(axis=1, keepdims=True)
        denom_p = np.sqrt(np.einsum("nr,nr->n", pseudo_c, pseudo_c))
        local = self._train_scores_z_[region_idx]              # (n, r, d)
        local_c = local - local.mean(axis=1, keepdims=True)
        num = np.einsum("nr,nrd->nd", pseudo_c, local_c)
        denom = denom_p[:, None] * np.sqrt(
            np.einsum("nrd,nrd->nd", local_c, local_c)
        )
        corrs = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
        best = np.argsort(corrs, axis=1)[:, ::-1][:, :top_k]
        return np.take_along_axis(test_scores_z, best, axis=1).mean(axis=1)
