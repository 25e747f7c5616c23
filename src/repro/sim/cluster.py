"""Machine-pool model of the closed-loop mitigation simulator, including its
runs of paper Algorithms 2 and 3 (:func:`repro.sim.mitigation.jct_reduction`).

The pool tracks when spare machines become available. A job's n tasks occupy
their original machines; a machine joins the spare pool when its (unflagged)
task finishes or when a relaunched task completes. Machines that hosted a
*flagged* task are retired — the paper relaunches "on a new machine" because
the old one is implicated in the straggling.

A ``release`` either returns an acquired machine or adds a new one — that
is how Algorithm 3 donates the machines of finished unflagged tasks to the
spare pool.
"""

from __future__ import annotations

import heapq
from typing import List, Optional


class MachinePool:
    """Min-heap of machine-available times."""

    def __init__(self, initial_spares: int):
        if initial_spares < 0:
            raise ValueError("initial_spares must be >= 0.")
        # Spare machines are available from time 0.
        self._heap: List[float] = [0.0] * initial_spares

    def release(self, when: float) -> None:
        """A machine becomes available at time ``when``: an acquired one
        coming back, or a *new* one (as when a finished task's original
        machine joins the spares)."""
        heapq.heappush(self._heap, float(when))

    def acquire(self, not_before: float) -> Optional[float]:
        """Take the earliest machine usable at or after ``not_before``.

        Returns the actual start time (max of availability and
        ``not_before``), or None when the pool is empty. A machine released
        at exactly ``not_before`` is already usable at that instant —
        release-then-acquire at the same timestamp succeeds.
        """
        if not self._heap:
            return None
        return max(heapq.heappop(self._heap), float(not_before))
