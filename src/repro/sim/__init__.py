"""Online replay simulation: checkpoint streaming, closed-loop mitigation, JCT.

Mirrors the paper's evaluation methodology (§6): a simulator parses a trace
into a time series and sends each predictor exactly the features that would
be observable at each time checkpoint; the closed-loop simulator then acts
on the flags (the paper's Algorithms 2 and 3 are its kill-restart policy,
§5) and the harness measures job-completion time (JCT) reduction.
"""

from repro.sim.cluster import MachinePool
from repro.sim.mitigation import (
    ClosedLoopReport,
    ClosedLoopSimulator,
    MitigationConfig,
    MitigationOutcome,
    control_reports,
    jct_reduction,
    oracle_result,
    paper_report,
    random_flagger_result,
)
from repro.sim.replay import (
    ReplaySimulator,
    ReplayResult,
    ReplayStream,
    StepOutcome,
    StreamSnapshot,
)

__all__ = [
    "MachinePool",
    "ClosedLoopReport",
    "ClosedLoopSimulator",
    "MitigationConfig",
    "MitigationOutcome",
    "control_reports",
    "jct_reduction",
    "oracle_result",
    "paper_report",
    "random_flagger_result",
    "ReplaySimulator",
    "ReplayResult",
    "ReplayStream",
    "StepOutcome",
    "StreamSnapshot",
]
