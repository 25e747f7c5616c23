"""Ablation benches for NURD's design choices, on the tuned Google config:

- calibration on/off (the paper's own NURD vs NURD-NC ablation),
- α sensitivity,
- straggler-threshold robustness p70–p95 (paper §6 claims NURD is robust),
- warmup fraction,
- ρ-cap (this reproduction's guard on the calibration estimator),
- propensity model choice (logistic vs boosted trees).
"""

from dataclasses import replace

import numpy as np

from repro.eval import evaluate_all
from repro.learn.gbm import GradientBoostingClassifier


def _mean_f1(trace, config, **nurd_kwargs):
    """NURD's mean F1 over ``trace``, with ``nurd_kwargs`` passed to its
    constructor."""
    cfg = replace(config, method_params={"NURD": nurd_kwargs})
    return evaluate_all(trace, ["NURD"], cfg)["NURD"].f1


def test_ablation_calibration(google_trace, google_config, benchmark):
    res = benchmark.pedantic(
        lambda: evaluate_all(google_trace, ["NURD", "NURD-NC"], google_config),
        rounds=1,
        iterations=1,
    )
    print(f"\ncalibration on : F1={res['NURD'].f1:.2f} FPR={res['NURD'].fpr:.2f}")
    print(f"calibration off: F1={res['NURD-NC'].f1:.2f} FPR={res['NURD-NC'].fpr:.2f}")
    assert res["NURD"].f1 >= res["NURD-NC"].f1 - 0.02
    assert res["NURD"].fpr <= res["NURD-NC"].fpr + 0.02


def test_ablation_alpha(google_trace, google_config, benchmark):
    alphas = [0.3, 0.4, 0.5, 0.6]

    def sweep():
        return {
            a: _mean_f1(google_trace, replace(google_config, alpha=a)) for a in alphas
        }

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nalpha sensitivity:", {a: round(v, 2) for a, v in f1s.items()})
    # The method should not collapse anywhere in the tuned neighborhood.
    assert min(f1s.values()) > 0.25


def test_ablation_threshold_robustness(google_trace, google_config, benchmark):
    """Paper §6: results with thresholds p70–p95 are consistent."""
    percentiles = [70.0, 80.0, 90.0, 95.0]

    def sweep():
        out = {}
        for p in percentiles:
            cfg = replace(google_config, straggler_percentile=p)
            out[p] = _mean_f1(google_trace, cfg)
        return out

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nthreshold robustness:", {p: round(v, 2) for p, v in f1s.items()})
    vals = list(f1s.values())
    assert max(vals) - min(vals) < 0.35


def test_ablation_warmup(google_trace, google_config, benchmark):
    fractions = [0.02, 0.04, 0.1, 0.2]

    def sweep():
        out = {}
        for w in fractions:
            cfg = replace(google_config, warmup_fraction=w)
            out[w] = _mean_f1(google_trace, cfg)
        return out

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nwarmup fraction:", {w: round(v, 2) for w, v in f1s.items()})
    assert min(f1s.values()) > 0.2


def test_ablation_rho_cap(google_trace, google_config, benchmark):
    caps = [1.0, 1.2, 2.0, np.inf]

    def sweep():
        return {c: _mean_f1(google_trace, google_config, rho_max=c) for c in caps}

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nrho cap:", {str(c): round(v, 2) for c, v in f1s.items()})
    # The uncapped paper formula must not beat the guarded default by much
    # (otherwise the guard would be unjustified).
    assert f1s[1.2] >= f1s[np.inf] - 0.05


def test_ablation_propensity_model(google_trace, google_config, benchmark):
    def sweep():
        logistic = _mean_f1(google_trace, google_config)
        boosted = _mean_f1(
            google_trace,
            google_config,
            propensity_model=GradientBoostingClassifier(n_estimators=30, max_depth=2),
        )
        return {"logistic": logistic, "gbm": boosted}

    f1s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\npropensity model:", {k: round(v, 2) for k, v in f1s.items()})
    assert f1s["logistic"] > 0.25 and f1s["gbm"] > 0.2
