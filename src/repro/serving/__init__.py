"""Online scoring service: replay's checkpoint stream, one event at a time.

- :mod:`repro.serving.engine` — incremental scoring engine: many in-flight
  jobs, per-checkpoint latency budget, cached-state degradation.
- :mod:`repro.serving.service` — asyncio ingest-queue → score → emit loop
  with sharded workers and backpressure.
- :mod:`repro.serving.stats` — latency reservoir for p50/p99 reporting.
"""

from repro.serving.engine import ScoreEvent, ScoringEngine
from repro.serving.service import (
    BeginJob,
    FinishJob,
    ScoreCheckpoint,
    ScorerService,
    ServiceConfig,
    ServiceFailure,
    ShardFailure,
)
from repro.serving.stats import LatencyStats

__all__ = [
    "ScoringEngine",
    "ScoreEvent",
    "ScorerService",
    "ServiceConfig",
    "ServiceFailure",
    "ShardFailure",
    "BeginJob",
    "ScoreCheckpoint",
    "FinishJob",
    "LatencyStats",
]
