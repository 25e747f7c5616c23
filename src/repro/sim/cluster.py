"""Machine-pool model of the closed-loop mitigation simulator, including its
runs of paper Algorithms 2 and 3 (:func:`repro.sim.mitigation.jct_reduction`).

The pool tracks when spare machines become available. A job's n tasks occupy
their original machines; a machine joins the spare pool when its (unflagged)
task finishes or when a relaunched task completes. Machines that hosted a
*flagged* task are retired — the paper relaunches "on a new machine" because
the old one is implicated in the straggling.

For closed-loop reporting the pool also keeps occupancy counters:
``in_use`` (machines acquired and not yet released), ``peak_in_use`` (its
high-water mark) and ``utilization`` (busy fraction of current capacity).
A ``release`` beyond the outstanding acquisitions grows capacity — that is
how Algorithm 3 donates the machines of finished unflagged tasks to the
spare pool — and is counted separately from returns of acquired machines.
"""

from __future__ import annotations

import heapq
from typing import List, Optional


class MachinePool:
    """Min-heap of machine-available times with occupancy accounting."""

    def __init__(self, initial_spares: int):
        if initial_spares < 0:
            raise ValueError("initial_spares must be >= 0.")
        self.initial_spares = int(initial_spares)
        # Spare machines are available from time 0.
        self._heap: List[float] = [0.0] * initial_spares
        heapq.heapify(self._heap)
        self.total_acquired = 0
        self.total_released = 0
        self._in_use = 0
        self.peak_in_use = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def in_use(self) -> int:
        """Machines acquired from the pool and not yet released back."""
        return self._in_use

    @property
    def capacity(self) -> int:
        """Current pool size: free machines plus acquired-but-unreturned."""
        return len(self._heap) + self._in_use

    @property
    def utilization(self) -> float:
        """Busy fraction of current capacity (0.0 for an empty pool)."""
        cap = self.capacity
        return self._in_use / cap if cap else 0.0

    def release(self, when: float) -> None:
        """A machine becomes available at time ``when``.

        Returning an acquired machine decrements ``in_use``; a release with
        no outstanding acquisition adds a *new* machine (capacity growth, as
        when a finished task's original machine joins the spares).
        """
        heapq.heappush(self._heap, float(when))
        self.total_released += 1
        if self._in_use > 0:
            self._in_use -= 1

    def acquire(self, not_before: float) -> Optional[float]:
        """Take the earliest machine usable at or after ``not_before``.

        Returns the actual start time (max of availability and
        ``not_before``), or None when the pool is empty. A machine released
        at exactly ``not_before`` is already usable at that instant —
        release-then-acquire at the same timestamp succeeds.
        """
        if not self._heap:
            return None
        avail = heapq.heappop(self._heap)
        self.total_acquired += 1
        self._in_use += 1
        self.peak_in_use = max(self.peak_in_use, self._in_use)
        return max(avail, float(not_before))

    def peek(self) -> Optional[float]:
        """Earliest availability time without removing it."""
        return self._heap[0] if self._heap else None
