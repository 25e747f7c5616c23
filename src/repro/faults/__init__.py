"""Fault hardening for the serving and eval layers.

:mod:`retry` holds capped-backoff retry policies, :mod:`dlq` a bounded
dead-letter queue with exact counters, and :mod:`accounting` exactly-once
flag accounting over possibly re-delivered event streams. The program
carries no fault injection; the seeded fault plans and the wrappers that
inject them are a test helper, ``tests/fault_injection.py``.
"""

from repro.faults.accounting import FlagAccount, collect_flags
from repro.faults.dlq import DeadLetter, DeadLetterQueue
from repro.faults.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "DeadLetter",
    "DeadLetterQueue",
    "FlagAccount",
    "collect_flags",
]
