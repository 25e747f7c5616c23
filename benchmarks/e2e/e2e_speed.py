"""Host speed index: a fixed reference kernel timed between units of work.

The reference host is a shared 2-core VM whose CPU speed wanders: the same
GBM fits, timed in back-to-back blocks of a third of a second, spread 20%
between their quartiles, and over 30 consecutive benchmark runs this
kernel's mean time in the slowest run was 1.8 times that in the fastest.
Such drift moves
every timing of a run together, so it cannot be averaged away inside one
run. The benchmark therefore times a fixed kernel, written here and using
nothing from ``repro``, every :data:`PROBE_EVERY_S` seconds between units of
measured work, and reports each timing in *reference seconds*: wall seconds
divided by the host factor (the kernel's trimmed-mean time around the
measurement ÷ :data:`NOMINAL_S`). On a host running at reference speed the
two agree; a change to ``repro`` moves reference seconds exactly as it moves
wall seconds, because the kernel does not run any of its code.

The kernel does what the workloads spend their time on: short greedy
regression-tree fits over small float arrays, sorting, prefix sums and
arg-max per feature, one Python loop iteration per node and feature.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Median kernel time on the reference host (2-core x86-64 VM, Python
#: 3.11, numpy 2.4, one BLAS thread), in seconds.
NOMINAL_S = 0.011

#: Minimum wall time between probes while work is measured.
PROBE_EVERY_S = 0.2

#: Probes nearest in time whose trimmed mean gives a local host factor.
LOCAL_PROBES = 8

#: Share of probes dropped from each end before averaging.
TRIM = 0.125

_ROUNDS = 6
_DEPTH = 3

_X = np.random.default_rng(0x5EED).normal(size=(192, 6))
_Y = _X[:, 1] - _X[:, 2] ** 2 + 0.5 * _X[:, 0] * _X[:, 3]


def reference_kernel(rounds: int = _ROUNDS) -> float:
    """Boost ``rounds`` depth-3 exact-split regression trees; return a checksum.

    Deterministic: the same ``rounds`` always returns the same float.
    """
    n, d = _X.shape
    resid = _Y.copy()
    cuts = np.arange(1, n, dtype=np.float64)
    for _ in range(rounds):
        for _tree in range(4):
            nodes = [np.arange(n)]
            for _level in range(_DEPTH):
                children = []
                for idx in nodes:
                    m = idx.size
                    if m < 8:
                        continue
                    y = resid[idx]
                    total = y.sum()
                    k = cuts[: m - 1]
                    best_gain, best_f, best_j = -math.inf, 0, 0
                    for f in range(d):
                        order = np.argsort(_X[idx, f], kind="stable")
                        left = np.cumsum(y[order])[:-1]
                        gain = left * left / k + (total - left) ** 2 / (m - k)
                        j = int(np.argmax(gain))
                        if gain[j] > best_gain:
                            best_gain, best_f, best_j = float(gain[j]), f, j
                    order = np.argsort(_X[idx, best_f], kind="stable")
                    children += [idx[order[: best_j + 1]], idx[order[best_j + 1 :]]]
                nodes = children
            for idx in nodes:
                resid[idx] -= 0.1 * resid[idx].mean()
    return float(resid @ resid)


def trimmed_mean(values: Sequence[float], trim: float = TRIM) -> float:
    """Mean after dropping ``floor(trim * n)`` values from each end."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("no values.")
    cut = int(trim * arr.size)
    return float(arr[cut : arr.size - cut].mean())


class HostSpeed:
    """Probes the host between units of work and converts wall seconds.

    Call :meth:`tick` wherever the measured work pauses (it probes when
    :data:`PROBE_EVERY_S` has passed since the last probe) and :meth:`probe`
    to force one. Probe time must be kept out of the measured intervals, or
    subtracted with :meth:`spent_between`.
    """

    def __init__(
        self,
        every_s: float = PROBE_EVERY_S,
        nominal_s: float = NOMINAL_S,
        kernel: Callable[[], float] = reference_kernel,
        clock: Callable[[], float] = time.perf_counter,
        span: Optional[Callable] = None,
    ):
        self.every_s = every_s
        self.nominal_s = nominal_s
        self.kernel = kernel
        self.clock = clock
        self._span = span
        #: Midpoint and duration of every probe, in time order.
        self.mids: List[float] = []
        self.durations: List[float] = []
        self.checksum: Optional[float] = None
        self.mismatches = 0
        self._due = -math.inf

    def probe(self) -> None:
        with self._span("hostspeed.probe") if self._span else nullcontext():
            t0 = self.clock()
            value = self.kernel()
            t1 = self.clock()
        self.mids.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        if self.checksum is None:
            self.checksum = value
        elif value != self.checksum:
            self.mismatches += 1
        self._due = t1 + self.every_s

    def tick(self) -> None:
        if self.clock() >= self._due:
            self.probe()

    def _inside(self, start: float, end: float):
        return [(t, d) for t, d in zip(self.mids, self.durations) if start <= t <= end]

    def spent_between(self, start: float, end: float) -> float:
        """Seconds spent in probes whose midpoint lies in ``[start, end]``."""
        return float(sum(d for _, d in self._inside(start, end)))

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work done in ``[start, end]``.

        Each stretch between probes is divided by its own local host factor,
        so a slow spell weighs only the work it overlapped; probe time is
        left out.
        """
        edges = [start]
        for t, d in self._inside(start, end):
            edges += [t - 0.5 * d, t + 0.5 * d]
        edges.append(end)
        a, b = np.asarray(edges).reshape(-1, 2).T
        return float(np.sum((b - a) / self.factors_at(0.5 * (a + b))))

    def factor(self) -> float:
        """Host factor over every probe so far (>1: slower than nominal)."""
        return trimmed_mean(self.durations) / self.nominal_s

    def factors_at(self, stamps: Sequence[float], k: int = LOCAL_PROBES) -> np.ndarray:
        """Host factor at each time stamp, from the ``k`` probes nearest it."""
        mids = np.asarray(self.mids)
        durations = np.asarray(self.durations)
        if mids.size == 0:
            raise ValueError("no probes recorded.")
        k = min(k, mids.size)
        out = np.empty(len(stamps))
        for i, t in enumerate(stamps):
            nearest = np.argpartition(np.abs(mids - t), k - 1)[:k]
            out[i] = trimmed_mean(durations[nearest])
        return out / self.nominal_s
