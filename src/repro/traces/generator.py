"""Shared synthetic-workload core behind the Google and Alibaba generators.

:class:`TraceGenerator` is their one implementation; ``google.py`` and
``alibaba.py`` set its schema, feature names and profile overrides.

Structure (mirrors what production traces show; Reiss et al. 2012, Zheng &
Lee 2018): a job's tasks run the same program over similar data shards, so
the *bulk* of tasks is nearly homogeneous in feature space and its latency
spread is mostly noise. A minority of tasks is *afflicted* by a straggler
cause — resource contention, data skew, a slow machine, repeated failures —
which simultaneously (a) inflates latency and (b) lights up the monitored
metrics tied to that cause. Some afflicted tasks are *tolerated*: the cause
shows in their features but the machine absorbs it, so they do not straggle
(false-positive pressure for any feature-based detector). A per-job
``visibility`` knob additionally hides part of the cause signal (stragglers
with no feature signature — the false-negative floor).

Latency families reproduce the paper's Figure 1 dichotomy:

- ``heavy_tail``: strong cause coupling → long right tail, p90 well below
  half the max latency, afflicted tasks far away in feature space (the ρ ≤ 1
  calibration regime).
- ``compact``: weak coupling → compressed latency range, p90 above half the
  max, afflicted tasks near the bulk (ρ > 1 regime).
- ``bimodal``: two modes (e.g. a congested rack), intermediate behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.learn.base import BaseEstimator
from repro.traces.schema import Job, Trace
from repro.utils.validation import check_random_state

#: Latency distribution families available to jobs (paper Fig. 1 shows both
#: tail shapes occur in production).
LATENCY_FAMILIES = ("heavy_tail", "compact", "bimodal")

#: Straggler causes an afflicted task can draw.
CAUSES = ("contention", "skew", "slowness", "failures")


@dataclass
class TaskFactors:
    """Latent per-task cause factors in [0, ~1] (counts for failures).

    ``tolerated`` marks afflicted tasks whose machine absorbs the cause:
    their *features* show it but their *latency* does not.
    """

    contention: np.ndarray
    skew: np.ndarray
    slowness: np.ndarray
    failures: np.ndarray
    memory: np.ndarray
    afflicted: np.ndarray  # bool: task carries a straggler cause
    tolerated: np.ndarray  # bool: cause visible but latency unaffected

    @property
    def n_tasks(self) -> int:
        return self.contention.shape[0]

    def latency_effective(self) -> "TaskFactors":
        """Factors as they act on latency: tolerated tasks' boosts removed.

        Tolerated tasks keep only bulk-level factor values for the latency
        computation (their features still use the full values).
        """
        damp = np.where(self.afflicted & self.tolerated, 0.15, 1.0)
        return TaskFactors(
            contention=self.contention * damp,
            skew=self.skew * damp,
            slowness=self.slowness * damp,
            failures=self.failures * damp,
            memory=self.memory * damp,
            afflicted=self.afflicted,
            tolerated=self.tolerated,
        )


def sample_factors(
    n_tasks: int,
    rng: np.random.Generator,
    afflicted_frac: float = 0.15,
    tolerated_frac: float = 0.2,
    cause_weights=None,
    severity_ab: Tuple[float, float] = (6.0, 2.0),
    severity_scale: float = 1.0,
    two_cause_prob: float = 0.5,
) -> TaskFactors:
    """Draw the bulk + afflicted mixture of cause factors.

    Bulk tasks have uniformly small factors; afflicted tasks get one (or,
    with 50% chance, two) causes pushed toward the high end with a graded
    severity, so straggling intensity varies. ``cause_weights`` sets the
    probability of each cause in :data:`CAUSES` (default uniform) — e.g. the
    Alibaba generator weights contention higher because its workloads are
    CPU/memory-bound. ``severity_ab`` are the Beta parameters of the severity
    draw: (6, 2) gives rare-but-extreme causes (heavy-tailed jobs), (2.2,
    2.8) gives a graded spectrum (compact jobs).
    """
    if not 0.0 < afflicted_frac < 1.0:
        raise ValueError("afflicted_frac must be in (0, 1).")
    if cause_weights is None:
        cause_weights = np.full(len(CAUSES), 1.0 / len(CAUSES))
    else:
        cause_weights = np.asarray(cause_weights, dtype=float)
        if cause_weights.shape != (len(CAUSES),) or cause_weights.min() < 0:
            raise ValueError(f"cause_weights must be {len(CAUSES)} non-negatives.")
        cause_weights = cause_weights / cause_weights.sum()
    # Bulk: homogeneous, low-usage population.
    contention = rng.beta(1.5, 10.0, size=n_tasks)
    skew = rng.beta(1.0, 12.0, size=n_tasks)
    slowness = rng.beta(1.2, 10.0, size=n_tasks)
    failures = rng.poisson(0.05, size=n_tasks).astype(np.float64)
    memory = 0.5 * contention + 0.5 * rng.beta(1.5, 8.0, size=n_tasks)

    afflicted = rng.random(n_tasks) < afflicted_frac
    idx = np.nonzero(afflicted)[0]
    arrays = {
        "contention": contention,
        "skew": skew,
        "slowness": slowness,
        "failures": failures,
    }
    for i in idx:
        n_causes = 2 if rng.random() < two_cause_prob else 1
        causes = rng.choice(len(CAUSES), size=n_causes, replace=False, p=cause_weights)
        severity = severity_scale * rng.beta(*severity_ab)
        for c in causes:
            name = CAUSES[c]
            if name == "failures":
                arrays[name][i] += rng.poisson(1.0 + 3.0 * severity)
            else:
                cur = arrays[name][i]
                arrays[name][i] = cur + severity * (1.0 - cur)
    # Memory tracks contention for afflicted tasks too.
    memory = np.where(afflicted, 0.6 * arrays["contention"] + 0.4 * memory, memory)
    tolerated = afflicted & (rng.random(n_tasks) < tolerated_frac)
    return TaskFactors(
        contention=arrays["contention"],
        skew=arrays["skew"],
        slowness=arrays["slowness"],
        failures=arrays["failures"],
        memory=memory,
        afflicted=afflicted,
        tolerated=tolerated,
    )


def sample_job_profile(rng: np.random.Generator) -> Dict:
    """Per-job heterogeneity: latency family, scale, coupling, visibility."""
    family = rng.choice(LATENCY_FAMILIES, p=[0.45, 0.35, 0.2])
    profile = {
        "family": str(family),
        "base_latency": float(rng.uniform(50.0, 500.0)),
        # Weight of each cause on log-latency.
        "w_contention": float(rng.uniform(0.7, 1.2)),
        "w_skew": float(rng.uniform(0.6, 1.1)),
        "w_slowness": float(rng.uniform(0.7, 1.3)),
        "w_failures": float(rng.uniform(0.2, 0.35)),
        # Share of the cause signal the monitored features reveal.
        "visibility": float(rng.uniform(0.7, 0.95)),
        "feature_noise": float(rng.uniform(0.03, 0.08)),
        # Tasks launch in scheduler waves spread over a window proportional
        # to the typical task latency. Production jobs keep launching tasks
        # for a large multiple of the per-task latency, so young tasks are
        # present at every point of the job's lifetime — late straggler
        # flags are never free of false-positive risk.
        "n_waves": int(rng.integers(4, 10)),
        "start_spread": float(rng.uniform(2.0, 5.0)),
    }
    if family == "heavy_tail":
        # Rare, extreme causes: long tail, p90 far below half the max.
        profile["noise_sigma"] = float(rng.uniform(0.18, 0.28))
        profile["coupling"] = float(rng.uniform(1.4, 2.0))
        profile["afflicted_frac"] = float(rng.uniform(0.15, 0.22))
        profile["severity_ab"] = (6.0, 2.0)
    elif family == "compact":
        # Common, graded causes: latency spreads broadly but the tail past
        # p90 is short, so p90 lands above half the max (Fig. 1 right).
        profile["noise_sigma"] = float(rng.uniform(0.22, 0.32))
        profile["coupling"] = float(rng.uniform(0.9, 1.2))
        profile["afflicted_frac"] = float(rng.uniform(0.3, 0.45))
        profile["severity_ab"] = (2.2, 2.8)
    else:  # bimodal
        profile["noise_sigma"] = float(rng.uniform(0.14, 0.22))
        profile["coupling"] = float(rng.uniform(1.0, 1.4))
        profile["afflicted_frac"] = float(rng.uniform(0.17, 0.25))
        profile["severity_ab"] = (4.0, 2.0)
    return profile


def latencies_from_factors(
    factors: TaskFactors, profile: Dict, rng: np.random.Generator
) -> np.ndarray:
    """Map latent factors to positive task latencies.

    log latency = log(base) + coupling · (Σ w_k · factor_k) + noise, where
    tolerated tasks' factor boosts are damped (features show the cause,
    latency does not) and bulk noise keeps the non-straggler latency spread
    realistic without making it feature-predictable.
    """
    eff = factors.latency_effective()
    signal = profile["coupling"] * (
        profile["w_contention"] * eff.contention
        + profile["w_skew"] * eff.skew
        + profile["w_slowness"] * eff.slowness
        + profile["w_failures"] * np.minimum(eff.failures, 3.0)
    )
    # Cap the multiplicative slowdown: production stragglers run ~10x the
    # typical task, not 1000x (paper Fig. 1 shows p90/max down to ~0.05).
    signal = np.minimum(signal, 2.3)
    n = factors.n_tasks
    # Afflicted tasks are far noisier *conditionally on their features*: how
    # badly a cause bites depends on unobserved machine/co-tenant state. This
    # is the Gaussian-latent misfit that hurts parametric censored models
    # (paper §3.4) while leaving feature-space methods untouched. Compact
    # jobs keep this boost small — their defining property is a short tail
    # past p90 (Fig. 1 right).
    lo, hi = profile.get("afflicted_noise_boost", (0.5, 2.0))
    sigma = profile["noise_sigma"] * np.where(
        factors.afflicted, 1.0 + rng.uniform(lo, hi, size=n), 1.0
    )
    noise = rng.normal(0.0, 1.0, size=n) * sigma
    log_lat = np.log(profile["base_latency"]) + signal + noise
    if profile["family"] == "bimodal":
        # Second mode: a subpopulation (e.g. tasks on a congested rack)
        # shifted upward; correlated with contention so it stays learnable.
        in_slow_mode = factors.afflicted & (rng.random(n) < 0.7)
        log_lat = np.where(in_slow_mode, log_lat + rng.uniform(0.5, 0.8), log_lat)
    lat = np.exp(log_lat)
    if profile["family"] == "heavy_tail":
        # Splice a (truncated) Pareto tail onto the most afflicted tasks.
        tail = factors.afflicted & ~factors.tolerated & (rng.random(n) < 0.25)
        mult = 1.0 + np.minimum(rng.pareto(3.0, size=n), 4.0)
        lat = np.where(tail, lat * mult, lat)
    return np.maximum(lat, 1e-3)


def mask_visibility(
    factors: TaskFactors, profile: Dict, rng: np.random.Generator
) -> TaskFactors:
    """Hide part of the cause signal from the monitored features.

    With probability (1 − visibility) an afflicted task's factors are
    replaced by a fresh bulk draw — its features then look normal even
    though its latency straggles, bounding every method's recall below 1
    (mixed/unobserved straggler causes; Zheng & Lee 2018).
    """
    v = profile["visibility"]
    n = factors.n_tasks
    hide = factors.afflicted & (rng.random(n) >= v)
    return TaskFactors(
        contention=np.where(hide, rng.beta(1.5, 10.0, size=n), factors.contention),
        skew=np.where(hide, rng.beta(1.0, 12.0, size=n), factors.skew),
        slowness=np.where(hide, rng.beta(1.2, 10.0, size=n), factors.slowness),
        failures=np.where(
            hide, rng.poisson(0.05, size=n).astype(float), factors.failures
        ),
        memory=np.where(hide, rng.beta(1.5, 8.0, size=n), factors.memory),
        afflicted=factors.afflicted & ~hide,
        tolerated=factors.tolerated,
    )


def _noisy(x: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    return np.maximum(x + rng.normal(0.0, scale, size=x.shape), 0.0)


def sample_start_times(
    n_tasks: int,
    latencies: np.ndarray,
    profile: Dict,
    rng: np.random.Generator,
) -> np.ndarray:
    """Scheduler-wave start times.

    Tasks are split into ``n_waves`` equal waves launched at even intervals
    across ``start_spread`` × median latency, with small per-task jitter —
    a light-weight model of tasks starting as machines free up.
    """
    n_waves = max(1, int(profile.get("n_waves", 1)))
    spread = float(profile.get("start_spread", 0.0))
    if spread <= 0 or n_waves == 1:
        return np.zeros(n_tasks)
    window = spread * float(np.median(latencies))
    wave_of = rng.integers(0, n_waves, size=n_tasks)
    wave_start = wave_of * (window / n_waves)
    jitter = rng.uniform(0.0, window / (4.0 * n_waves), size=n_tasks)
    return wave_start + jitter


def google_features(
    factors: TaskFactors, profile: Dict, rng: np.random.Generator
) -> np.ndarray:
    """Project visible factors onto the 15-column Google schema (Table 1).

    The factor→feature gain scales with the job's ``coupling``: jobs whose
    latency reacts strongly to the cause factors (heavy-tailed jobs) also
    expose those causes strongly in the monitored metrics, which is what
    makes the warmup centroid separation — and hence NURD's ρ — track the
    latency regime (paper §4.2). Responses are convex (quadratic) so bulk
    tasks sit near a tiny baseline and afflicted tasks light up several
    counters at once, like real sparse resource counters.
    """
    s = profile["feature_noise"]
    g = profile["coupling"]
    # Resource counters saturate (CPU can't exceed 100%, memory is bounded by
    # the machine): cause intensity beyond the cap is invisible to features
    # even though latency keeps growing with it. Parametric regressors lose
    # the ability to rank the worst stragglers; dissimilarity-based
    # reweighting does not need to.
    cap = 0.65
    con2 = np.minimum(factors.contention, cap) ** 2
    mem2 = np.minimum(factors.memory, cap) ** 2
    skew2 = np.minimum(factors.skew, cap) ** 2
    slow2 = np.minimum(factors.slowness, cap) ** 2
    mcu = _noisy(0.02 + 0.8 * g * con2, s, rng)
    maxcpu = mcu * (1.0 + _noisy(0.4 * factors.contention, s, rng))
    scpu = _noisy(mcu, s / 2, rng)
    cmu = _noisy(0.02 + 0.7 * g * mem2, s, rng)
    amu = cmu * (1.0 + _noisy(0.2 + 0.1 * factors.memory, s, rng))
    maxmu = cmu * (1.0 + _noisy(0.4 * factors.memory, s, rng))
    upc = _noisy(0.01 + 0.4 * g * skew2, s, rng)
    tpc = upc + _noisy(0.01 + 0.3 * g * skew2, s, rng)
    mio = _noisy(0.01 + 0.9 * g * skew2, s, rng)
    maxio = mio * (1.0 + _noisy(0.5 * factors.skew, s, rng))
    mdk = _noisy(0.01 + 0.6 * g * skew2, s, rng)
    cpi = _noisy(0.05 + 1.4 * g * slow2, s, rng)
    mai = _noisy(0.02 + 0.9 * g * slow2, s, rng)
    ev = np.round(_noisy(factors.failures * rng.uniform(0.5, 1.0), 0.1, rng))
    fl = np.round(_noisy(factors.failures, 0.1, rng))
    skew_cols = [upc, tpc, mio, maxio, mdk]
    return np.column_stack(
        [mcu, maxcpu, scpu, cmu, amu, maxmu, *skew_cols, cpi, mai, ev, fl]
    )


def alibaba_features(
    factors: TaskFactors, profile: Dict, rng: np.random.Generator
) -> np.ndarray:
    """Project visible factors onto the 4-column Alibaba schema (Table 2).

    Only CPU and memory are observed — skew, slowness and failures are
    invisible, which is why every method's F1 is lower on Alibaba-style
    traces (paper Table 3).
    """
    s = profile["feature_noise"]
    g = profile["coupling"]
    # Higher gains than the Google schema: with only 4 observable metrics,
    # the CPU/memory counters carry the whole cause signal. The same
    # saturation cap applies (see google_features).
    cap = 0.65
    cpu_avg = _noisy(0.02 + 1.3 * g * np.minimum(factors.contention, cap) ** 2, s, rng)
    cpu_max = cpu_avg * (1.0 + _noisy(0.4 * factors.contention, s, rng))
    mem_avg = _noisy(0.02 + 1.0 * g * np.minimum(factors.memory, cap) ** 2, s, rng)
    mem_max = mem_avg * (1.0 + _noisy(0.4 * factors.memory, s, rng))
    return np.column_stack([cpu_avg, cpu_max, mem_avg, mem_max])


def generate_job_arrays(
    n_tasks: int,
    schema: str,
    rng: np.random.Generator,
    profile: Optional[Dict] = None,
    profile_overrides: Optional[Dict] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict]:
    """Return ``(features, latencies, start_times, profile)`` for one job.

    ``profile_overrides`` lets a generator force schema-specific profile
    entries (e.g. Alibaba's cause mix) on top of the sampled profile.
    """
    if n_tasks < 2:
        raise ValueError("a job needs at least 2 tasks.")
    if profile is None:
        profile = sample_job_profile(rng)
    if profile_overrides:
        profile = {**profile, **profile_overrides}
    factors = sample_factors(
        n_tasks,
        rng,
        afflicted_frac=profile.get("afflicted_frac", 0.15),
        cause_weights=profile.get("cause_weights"),
        severity_ab=profile.get("severity_ab", (6.0, 2.0)),
        severity_scale=profile.get("severity_scale", 1.0),
        two_cause_prob=profile.get("two_cause_prob", 0.5),
    )
    latencies = latencies_from_factors(factors, profile, rng)
    visible = mask_visibility(factors, profile, rng)
    if schema == "google":
        X = google_features(visible, profile, rng)
    elif schema == "alibaba":
        X = alibaba_features(visible, profile, rng)
    else:
        raise ValueError(f"unknown schema {schema!r}; use 'google' or 'alibaba'.")
    # Benign platform heterogeneity: some tasks land on machines whose
    # counters read systematically high or low (hardware generation,
    # co-tenant accounting) with no latency effect. These tasks are feature-
    # space outliers but not latency outliers — the paper's §3.2 explanation
    # for why pure outlier detection fails at straggler prediction.
    hetero_frac = profile.get("hetero_frac", 0.15)
    hetero = rng.random(n_tasks) < hetero_frac
    scale = np.where(hetero, rng.uniform(0.75, 1.6, size=n_tasks), 1.0)
    X = X * scale[:, None]
    starts = sample_start_times(n_tasks, latencies, profile, rng)
    return X, latencies, starts, profile


class TraceGenerator(BaseEstimator):
    """Generate a synthetic trace of multi-task jobs in one feature schema.

    The Google and Alibaba generators differ only in their class
    attributes: ``schema`` names the feature projection, ``_features`` the
    column names, and ``_profile_overrides`` forces schema-specific profile
    entries (e.g. Alibaba's cause mix) on top of every sampled profile.

    Parameters
    ----------
    n_jobs : int
        Number of jobs in the trace.
    task_range : (int, int)
        Inclusive range of tasks per job; the paper filters to >= 100 tasks.
    random_state : int or Generator or None
        Seed for reproducibility.
    """

    schema: str
    _features: List[str]
    _profile_overrides: Optional[Dict] = None

    def __init__(
        self,
        n_jobs: int = 20,
        task_range: Tuple[int, int] = (100, 400),
        random_state=None,
    ):
        self.n_jobs = n_jobs
        self.task_range = task_range
        self.random_state = random_state

    @property
    def feature_names(self) -> List[str]:
        return list(self._features)

    def _job(self, job_id: str, n_tasks: int, rng, profile=None) -> Job:
        X, y, starts, prof = generate_job_arrays(
            n_tasks, self.schema, rng, profile, self._profile_overrides
        )
        return Job(
            job_id=job_id,
            features=X,
            latencies=y,
            feature_names=self.feature_names,
            start_times=starts,
            meta=dict(prof),
        )

    def generate_job(
        self, job_id: str, n_tasks: Optional[int] = None, profile=None
    ) -> Job:
        """Generate a single job (optionally with a fixed size/profile)."""
        rng = check_random_state(self.random_state)
        if n_tasks is None:
            lo, hi = self.task_range
            n_tasks = int(rng.integers(lo, hi + 1))
        return self._job(job_id, n_tasks, rng, profile)

    def iter_jobs(self) -> Iterator[Job]:
        """Stream the trace's jobs one at a time.

        Bit-identical to ``generate()`` (same RNG stream), but nothing is
        retained between yields — pipe it into
        :func:`repro.traces.io.save_trace_npz` to export 1000+-job traces
        without a fully materialized :class:`Trace`.
        """
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1.")
        lo, hi = self.task_range
        if lo < 2 or hi < lo:
            raise ValueError(f"invalid task_range {self.task_range}.")
        rng = check_random_state(self.random_state)
        for j in range(self.n_jobs):
            n_tasks = int(rng.integers(lo, hi + 1))
            yield self._job(f"{self.schema}-job-{j:05d}", n_tasks, rng)

    def generate(self) -> Trace:
        """Generate the full trace."""
        return Trace(name=self.schema, jobs=list(self.iter_jobs()))
