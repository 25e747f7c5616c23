"""Fault hardening for the serving and eval layers.

:mod:`retry` holds capped-backoff retry policies and :mod:`dlq` a bounded
dead-letter queue with exact counters. The program carries no fault
injection; the seeded fault plans, the wrappers that inject them and the
exactly-once flag accounting the tests check delivery against are a test
helper, ``tests/fault_injection.py``.
"""

from repro.faults.dlq import DeadLetter, DeadLetterQueue
from repro.faults.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "DeadLetter",
    "DeadLetterQueue",
]
