"""Hyperparameter tuning by the paper's protocol (§6).

The paper tunes each method on six jobs per trace and then applies the
values, fixed, to every evaluated job. :func:`tune` does that on a tuning
trace the caller draws disjoint from the evaluated jobs. It scores each grid
point with :func:`~repro.eval.harness.evaluate_all`, the loop that produces
the reported numbers, so tuning replays exactly what is reported. Jobs
whose scales differ from the tuning jobs then run with mis-specified
settings: that is the paper's protocol, not per-job adaptation.

Tuned here, by mean F1 on the tuning trace (on a tie the first grid point
wins):

- NURD's (α, ε), over :data:`NURD_GRID`;
- Grabit's Tobit scale σ (Sigrist & Hirnschall expose it as a
  hyperparameter), over :data:`SIGMA_MULTIPLIERS` × the median latency
  standard deviation of the tuning jobs. A single σ cannot fit every job
  (per-job latency scales differ by an order of magnitude), which is the
  mis-specification the protocol induces for parametric censored models.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.eval.harness import EvaluationConfig, evaluate_all
from repro.traces.schema import Trace

#: NURD's (α, ε) grid, in search order.
NURD_GRID = tuple((a, e) for a in (0.3, 0.4, 0.5) for e in (0.05, 0.2, 0.3))
#: Grabit's σ grid, in multiples of the tuning jobs' median latency std.
SIGMA_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0, 8.0)


def tune(tuning_trace: Trace, config: EvaluationConfig) -> EvaluationConfig:
    """Return ``config`` with NURD's (α, ε) and Grabit's σ tuned on
    ``tuning_trace``; its other fields are unchanged.

    Draw ``tuning_trace`` apart from the evaluated jobs (the benchmarks use
    their own generator seed), or tuning is in-sample.
    """
    if len(tuning_trace) == 0:
        raise ValueError("tuning_trace has no jobs.")
    base = float(np.median([np.std(job.latencies) for job in tuning_trace]))
    if not base > 0:
        raise ValueError("tuning_trace has zero latency variance.")

    def f1(method: str, **changes) -> float:
        cfg = replace(config, **changes)
        return evaluate_all(tuning_trace, [method], cfg)[method].f1

    # max() keeps the first of equal maxima.
    alpha, eps = max(NURD_GRID, key=lambda p: f1("NURD", alpha=p[0], eps=p[1]))
    sigma = max(
        (m * base for m in SIGMA_MULTIPLIERS),
        key=lambda s: f1("Grabit", method_params={"Grabit": {"sigma": s}}),
    )
    return replace(
        config, alpha=alpha, eps=eps, method_params={"Grabit": {"sigma": sigma}}
    )
