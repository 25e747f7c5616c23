"""Alibaba-cluster-style synthetic trace generator (paper Table 2 schema).

Alibaba instances expose only 4 features (CPU avg/max, memory avg/max), so
straggling caused by data skew, slow machines or failures is invisible to
every predictor — reproducing the paper's finding that absolute F1 is much
lower on Alibaba than on Google while NURD still leads.
"""

from __future__ import annotations

from repro.traces.generator import TraceGenerator
from repro.traces.schema import ALIBABA_FEATURES

#: Alibaba batch workloads are CPU/memory-bound, so contention dominates the
#: straggler-cause mix; skew/slowness/failures still occur but are invisible
#: in the 4-feature schema (the paper's lower Alibaba F1 across the board).
ALIBABA_CAUSE_WEIGHTS = (0.55, 0.15, 0.15, 0.15)


class AlibabaTraceGenerator(TraceGenerator):
    """Generate an Alibaba-style trace (4-feature instances).

    Parameters are those of :class:`~repro.traces.generator.TraceGenerator`;
    the paper filters Alibaba jobs to >= 100 instances.
    """

    schema = "alibaba"
    _features = ALIBABA_FEATURES
    _profile_overrides = {"cause_weights": ALIBABA_CAUSE_WEIGHTS}
