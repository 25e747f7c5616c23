"""Ablation benches for the design choices called out in DESIGN.md §5.

- calibration on/off (the paper's own NURD vs NURD-NC ablation),
- α sensitivity,
- straggler-threshold robustness p70–p95 (paper §6 claims NURD is robust),
- warmup fraction,
- ρ-cap (this reproduction's guard on the calibration estimator),
- propensity model choice (logistic vs boosted trees).
"""

import numpy as np

from conftest import make_config
from repro.core.nurd import NurdPredictor
from repro.eval import evaluate_all
from repro.learn.gbm import GradientBoostingClassifier
from repro.sim.replay import ReplaySimulator


def _mean_f1(trace, **nurd_kwargs):
    sim = ReplaySimulator(n_checkpoints=10, random_state=0)
    f1s = [
        sim.run(job, NurdPredictor(random_state=i, **nurd_kwargs)).f1
        for i, job in enumerate(trace)
    ]
    return float(np.mean(f1s))


def test_ablation_calibration(google_trace, benchmark):
    cfg = make_config("google")
    res = benchmark.pedantic(
        lambda: evaluate_all(google_trace, ["NURD", "NURD-NC"], cfg),
        rounds=1, iterations=1,
    )
    print(f"\ncalibration on : F1={res['NURD'].f1:.2f} FPR={res['NURD'].fpr:.2f}")
    print(f"calibration off: F1={res['NURD-NC'].f1:.2f} FPR={res['NURD-NC'].fpr:.2f}")
    assert res["NURD"].f1 >= res["NURD-NC"].f1 - 0.02
    assert res["NURD"].fpr <= res["NURD-NC"].fpr + 0.02


def test_ablation_alpha(google_trace, benchmark):
    alphas = [0.3, 0.4, 0.5, 0.6]

    def sweep():
        return {a: _mean_f1(google_trace, alpha=a) for a in alphas}

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nalpha sensitivity:", {a: round(v, 2) for a, v in f1s.items()})
    # The method should not collapse anywhere in the tuned neighborhood.
    assert min(f1s.values()) > 0.25


def test_ablation_threshold_robustness(google_trace, benchmark):
    """Paper §6: results with thresholds p70–p95 are consistent."""
    percentiles = [70.0, 80.0, 90.0, 95.0]

    def sweep():
        out = {}
        for p in percentiles:
            cfg = make_config("google", straggler_percentile=p)
            out[p] = evaluate_all(google_trace, ["NURD"], cfg)["NURD"].f1
        return out

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nthreshold robustness:", {p: round(v, 2) for p, v in f1s.items()})
    vals = list(f1s.values())
    assert max(vals) - min(vals) < 0.35


def test_ablation_warmup(google_trace, benchmark):
    fractions = [0.02, 0.04, 0.1, 0.2]

    def sweep():
        out = {}
        for w in fractions:
            cfg = make_config("google", warmup_fraction=w)
            out[w] = evaluate_all(google_trace, ["NURD"], cfg)["NURD"].f1
        return out

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nwarmup fraction:", {w: round(v, 2) for w, v in f1s.items()})
    assert min(f1s.values()) > 0.2


def test_ablation_rho_cap(google_trace, benchmark):
    caps = [1.0, 1.2, 2.0, np.inf]

    def sweep():
        return {c: _mean_f1(google_trace, rho_max=c) for c in caps}

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nrho cap:", {str(c): round(v, 2) for c, v in f1s.items()})
    # The uncapped paper formula must not beat the guarded default by much
    # (otherwise the guard would be unjustified).
    assert f1s[1.2] >= f1s[np.inf] - 0.05


def test_ablation_propensity_model(google_trace, benchmark):
    def sweep():
        logistic = _mean_f1(google_trace)
        boosted = _mean_f1(
            google_trace,
            propensity_model=GradientBoostingClassifier(n_estimators=30, max_depth=2),
        )
        return {"logistic": logistic, "gbm": boosted}

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\npropensity model:", {k: round(v, 2) for k, v in f1s.items()})
    assert f1s["logistic"] > 0.25 and f1s["gbm"] > 0.2
