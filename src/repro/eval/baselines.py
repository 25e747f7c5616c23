"""Adapters wrapping all 23 Table-3 methods into the online-predictor
protocol.

Every method is driven identically by the replay simulator; what varies is
how each turns checkpoint-observable data into straggler flags:

- **GBTR** — latency regression on finished tasks; flag ŷ ≥ τ_stra.
- **Outlier detectors** (14) — fit on all observed features at the
  checkpoint; flag running tasks labeled outliers (contamination = 1 −
  straggler percentile). XGBOD additionally consumes the finished/running
  labels (it is semi-supervised) and flags the top-scoring running tasks.
- **PU learners** — labeled class = finished tasks; flag running tasks
  unlikely to belong to it.
- **Censored/survival** — latency censored at τ_run (≈ max finished
  latency); Tobit/Grabit flag ŷ ≥ τ_stra, CoxPH flags tasks more likely
  than not to survive past τ_stra.
- **Wrangler** — offline linear SVM trained on a labeled 2/3 sample of the
  job with stragglers oversampled (the paper's concession that Wrangler
  assumes labeled stragglers exist).
- **NURD / NURD-NC** — the paper's method and its no-calibration ablation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.censored import CoxPHFitter, GrabitRegressor, TobitRegressor
from repro.core.base import OnlineStragglerPredictor
from repro.core.nurd import NurdNcPredictor, NurdPredictor
from repro.learn.gbm import GradientBoostingRegressor
from repro.learn.svm import LinearSVC
from repro.outliers import ALL_DETECTORS
from repro.pu import BaggingPuClassifier, ElkanNotoClassifier
from repro.utils.validation import check_random_state

#: Wrangler's labeled training sample (a share of the job's tasks) and its
#: oversampling target (stragglers per non-straggler).
_WRANGLER_TRAIN_FRACTION = 2.0 / 3.0
_WRANGLER_OVERSAMPLE = 3.0


class GbtrPredictor(OnlineStragglerPredictor):
    """Supervised baseline: plain gradient-boosted latency regression (60
    trees of depth 3).

    ``random_state`` is kept so every method is built alike
    (``build_predictor`` passes one to each); the model draws no random
    numbers.
    """

    def __init__(self, random_state=None):
        self.random_state = random_state

    def update(self, X_fin, y_fin, X_run, elapsed_run=None) -> None:
        model = GradientBoostingRegressor(n_estimators=60, max_depth=3)
        self.model_ = model.fit(X_fin, y_fin)

    def predict_stragglers(self, X_run) -> np.ndarray:
        X_run = np.asarray(X_run, dtype=float)
        if X_run.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        return self.model_.predict(X_run) >= self.tau_stra_

    @property
    def name(self) -> str:
        return "GBTR"


class OutlierDetectorPredictor(OnlineStragglerPredictor):
    """Wraps one unsupervised detector from :mod:`repro.outliers`.

    The detector is refitted each checkpoint on every observed task's
    features (finished ∪ running), then running tasks labeled outliers are
    flagged. Contamination matches the straggler rate (0.1 for p90).
    """

    def __init__(
        self, detector_name: str, contamination: float = 0.1, random_state=None
    ):
        self.detector_name = detector_name
        self.contamination = contamination
        self.random_state = random_state

    def _make(self):
        cls = ALL_DETECTORS[self.detector_name]
        kwargs = {"contamination": self.contamination}
        if self.detector_name in ("CBLOF", "IFOREST", "MCD", "OCSVM", "XGBOD"):
            kwargs["random_state"] = self.random_state
        return cls(**kwargs)

    def update(self, X_fin, y_fin, X_run, elapsed_run=None) -> None:
        # No cache clear here: the shared NeighborCache is LRU-bounded (so
        # long replays stay at constant footprint) and content-keyed, which
        # lets *other* method replays of the same job hit this checkpoint's
        # tree builds when the harness schedules them job-major.
        X_fin = np.asarray(X_fin, dtype=float)
        X_run = np.asarray(X_run, dtype=float)
        X_all = np.vstack([X_fin, X_run])
        self._n_fin = X_fin.shape[0]
        self.detector_ = self._make()
        if self.detector_name == "XGBOD":
            # Semi-supervised: finished/running labels are the only labels
            # observable mid-job.
            labels = np.concatenate(
                [np.zeros(X_fin.shape[0]), np.ones(X_run.shape[0])]
            ).astype(np.int64)
            self.detector_.fit(X_all, labels)
            self._xgbod_threshold_ = float(
                np.quantile(self.detector_.decision_scores_, 1.0 - self.contamination)
            )
        else:
            self.detector_.fit(X_all)

    def predict_stragglers(self, X_run) -> np.ndarray:
        X_run = np.asarray(X_run, dtype=float)
        if X_run.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        if self.detector_name == "XGBOD":
            scores = self.detector_.decision_function(X_run)
            return scores > self._xgbod_threshold_
        if getattr(self.detector_, "transductive", False):
            # Transductive detectors (SOS): reuse the joint-fit scores of the
            # running rows rather than re-scoring them out of context.
            scores = self.detector_.decision_scores_[self._n_fin :]
            return scores > self.detector_.threshold_
        return self.detector_.predict(X_run) == 1

    @property
    def name(self) -> str:
        return self.detector_name


class PuPredictor(OnlineStragglerPredictor):
    """PU learning adapter: labeled class = finished tasks.

    A running task is flagged when the PU-corrected probability (PU-EN) or
    averaged SVM decision (PU-BG) says it does not belong to the
    finished-task class.
    """

    def __init__(self, variant: str = "PU-EN", random_state=None):
        self.variant = variant
        self.random_state = random_state

    def update(self, X_fin, y_fin, X_run, elapsed_run=None) -> None:
        X_fin = np.asarray(X_fin, dtype=float)
        X_run = np.asarray(X_run, dtype=float)
        X_all = np.vstack([X_fin, X_run])
        s = np.concatenate(
            [np.ones(X_fin.shape[0]), np.zeros(X_run.shape[0])]
        ).astype(np.int64)
        if self.variant == "PU-EN":
            self.model_ = ElkanNotoClassifier(random_state=self.random_state)
        elif self.variant == "PU-BG":
            self.model_ = BaggingPuClassifier(random_state=self.random_state)
        else:
            raise ValueError(f"unknown PU variant {self.variant!r}.")
        self.model_.fit(X_all, s)

    def predict_stragglers(self, X_run) -> np.ndarray:
        X_run = np.asarray(X_run, dtype=float)
        if X_run.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        if self.variant == "PU-EN":
            return self.model_.predict_proba(X_run)[:, 1] < 0.5
        return self.model_.decision_function(X_run) < 0.0

    @property
    def name(self) -> str:
        return self.variant


class CensoredRegressionPredictor(OnlineStragglerPredictor):
    """Tobit / Grabit adapter.

    Censoring follows the paper's formulation (§2): at checkpoint t every
    running task's latency is only known to exceed τ_run_t (approximated by
    the largest finished latency). ``random_state`` is kept so every method
    is built alike; neither model draws random numbers.
    """

    def __init__(self, variant: str = "Tobit", sigma=None, random_state=None):
        self.variant = variant
        self.sigma = sigma
        self.random_state = random_state

    def update(self, X_fin, y_fin, X_run, elapsed_run=None) -> None:
        X_fin = np.asarray(X_fin, dtype=float)
        y_fin = np.asarray(y_fin, dtype=float)
        X_run = np.asarray(X_run, dtype=float)
        censor_level = np.full(X_run.shape[0], float(y_fin.max()))
        X_all = np.vstack([X_fin, X_run])
        y_all = np.concatenate([y_fin, censor_level])
        censored = np.concatenate(
            [np.zeros(X_fin.shape[0], bool), np.ones(X_run.shape[0], bool)]
        )
        if self.variant == "Tobit":
            self.model_ = TobitRegressor()
        elif self.variant == "Grabit":
            self.model_ = GrabitRegressor(sigma=self.sigma)
        else:
            raise ValueError(f"unknown censored variant {self.variant!r}.")
        self.model_.fit(X_all, y_all, censored)

    def predict_stragglers(self, X_run) -> np.ndarray:
        X_run = np.asarray(X_run, dtype=float)
        if X_run.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        return self.model_.predict(X_run) >= self.tau_stra_

    @property
    def name(self) -> str:
        return self.variant


class CoxPhPredictor(OnlineStragglerPredictor):
    """Survival adapter: flag tasks more likely than not to survive past
    τ_stra, i.e. ``S(τ_stra | x) > 0.5``.

    Before any event beyond τ_run exists the Breslow baseline hazard is
    tiny, so early checkpoints over-flag — the high-TPR/high-FPR profile
    the paper reports for CoxPH.
    """

    def update(self, X_fin, y_fin, X_run, elapsed_run=None) -> None:
        X_fin = np.asarray(X_fin, dtype=float)
        y_fin = np.asarray(y_fin, dtype=float)
        X_run = np.asarray(X_run, dtype=float)
        censor_level = np.full(X_run.shape[0], float(y_fin.max()))
        X_all = np.vstack([X_fin, X_run])
        durations = np.concatenate([y_fin, censor_level])
        events = np.concatenate(
            [np.ones(X_fin.shape[0], bool), np.zeros(X_run.shape[0], bool)]
        )
        self.model_ = CoxPHFitter().fit(X_all, durations, events)

    def predict_stragglers(self, X_run) -> np.ndarray:
        X_run = np.asarray(X_run, dtype=float)
        if X_run.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        return self.model_.predict_survival(self.tau_stra_, X_run) > 0.5

    @property
    def name(self) -> str:
        return "CoxPH"


class WranglerPredictor(OnlineStragglerPredictor):
    """Wrangler (Yadwadkar et al., 2014): offline linear SVM with oversampled
    stragglers.

    Wrangler assumes labeled stragglers exist: the harness calls
    :meth:`fit_offline` with the job's tasks and their true straggler labels
    before the replay starts, and the model trains on a
    ``_WRANGLER_TRAIN_FRACTION`` (2/3) sample of them (mirroring the paper
    §6).
    """

    needs_offline_labels = True

    def __init__(self, random_state=None):
        self.random_state = random_state

    def fit_offline(self, X_all, straggler_mask) -> None:
        X_all = np.asarray(X_all, dtype=float)
        mask = np.asarray(straggler_mask, dtype=bool)
        rng = check_random_state(self.random_state)
        n = X_all.shape[0]
        train_idx = rng.choice(
            n, size=max(2, int(round(_WRANGLER_TRAIN_FRACTION * n))), replace=False
        )
        X_tr = X_all[train_idx]
        y_tr = mask[train_idx].astype(np.int64)
        # Oversample stragglers to _WRANGLER_OVERSAMPLE times the
        # non-stragglers (Wrangler prioritizes recall: missing a straggler
        # is costlier than a spurious relaunch).
        pos = np.nonzero(y_tr == 1)[0]
        neg = np.nonzero(y_tr == 0)[0]
        if pos.shape[0] > 0 and neg.shape[0] > pos.shape[0]:
            target = int(round(_WRANGLER_OVERSAMPLE * neg.shape[0]))
            reps = int(np.ceil(target / pos.shape[0]))
            pos_over = np.tile(pos, reps)[:target]
            keep = np.concatenate([neg, pos_over])
            X_tr, y_tr = X_tr[keep], y_tr[keep]
        self.model_ = LinearSVC(random_state=rng).fit(X_tr, y_tr)

    def update(self, X_fin, y_fin, X_run, elapsed_run=None) -> None:
        # Offline model: nothing to update online.
        if not hasattr(self, "model_"):
            raise RuntimeError(
                "WranglerPredictor.fit_offline must be called before replay."
            )

    def predict_stragglers(self, X_run) -> np.ndarray:
        X_run = np.asarray(X_run, dtype=float)
        if X_run.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        return self.model_.predict(X_run) == 1

    @property
    def name(self) -> str:
        return "Wrangler"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

OUTLIER_NAMES: List[str] = list(ALL_DETECTORS.keys())

METHOD_GROUPS: Dict[str, List[str]] = {
    "Supervised": ["GBTR"],
    "Outlier detection": OUTLIER_NAMES,
    "Positive-unlabeled": ["PU-EN", "PU-BG"],
    "Censored and survival regression": ["Tobit", "Grabit", "CoxPH"],
    "Systems": ["Wrangler"],
    "Ours": ["NURD-NC", "NURD"],
}

METHOD_NAMES: List[str] = [m for group in METHOD_GROUPS.values() for m in group]


def build_predictor(
    name: str,
    contamination: float = 0.1,
    random_state=None,
    alpha: float = 0.5,
    eps: float = 0.05,
    method_params: Optional[Dict[str, Dict]] = None,
) -> OnlineStragglerPredictor:
    """Instantiate a fresh predictor for ``name`` (one per job, per paper).

    ``alpha``/``eps`` are NURD's calibration hyperparameters (the paper's
    values by default; :func:`repro.eval.tuning.tune` tunes them on held-out
    jobs by the paper's §6 protocol); ``contamination`` is 1 − straggler
    percentile for the outlier detectors; ``method_params`` carries
    per-method settings passed to the predictor's constructor (e.g. Grabit's
    tuned σ, or NURD's ``rho_max`` in an ablation).
    """
    extra = (method_params or {}).get(name, {})
    if name == "GBTR":
        return GbtrPredictor(random_state=random_state, **extra)
    if name in ALL_DETECTORS:
        return OutlierDetectorPredictor(
            name, contamination=contamination, random_state=random_state, **extra
        )
    if name in ("PU-EN", "PU-BG"):
        return PuPredictor(variant=name, random_state=random_state, **extra)
    if name in ("Tobit", "Grabit"):
        return CensoredRegressionPredictor(
            variant=name, random_state=random_state, **extra
        )
    if name == "CoxPH":
        return CoxPhPredictor(**extra)
    if name == "Wrangler":
        return WranglerPredictor(random_state=random_state, **extra)
    if name == "NURD":
        return NurdPredictor(alpha=alpha, eps=eps, random_state=random_state, **extra)
    if name == "NURD-NC":
        return NurdNcPredictor(alpha=alpha, eps=eps, random_state=random_state, **extra)
    raise ValueError(f"unknown method {name!r}; known: {METHOD_NAMES}.")
