"""In-process probe of the speed the machine gives this process right now.

On a shared machine the speed available to one process drifts by 20% and
more within minutes, because other tenants contend for the same cores;
process CPU time drifts with wall time, so it does not help.  The probe runs
a fixed micro-kernel from ``SIGALRM`` every ``PERIOD_S`` inside the worker,
while the workload runs, and times it.  Over a repetition, the kernel's mean
time tracks the workload's own slowdown (correlation about 0.9 on a shared
2-core VM), so scaling the workload's time by ``NOMINAL_S`` over that mean
gives its time at a fixed nominal speed.  The probe takes about 2% of the
process's time, which is subtracted from the workload's wall time.

The kernel mixes what the workloads do, numpy calls on small arrays from a
Python loop.  It does not use rsop, so no change to the package changes it.
A Python signal handler runs between bytecodes, so during one long numpy
call the probe waits; it samples less often, not wrongly.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
# Kernel time that defines the nominal speed: about its time on an uncontended
# core of a 2.0 GHz Xeon VM (Python 3.11, numpy 2.4).
NOMINAL_S = 0.35e-3

_SMALL = np.linspace(0.1, 1.0, 16)


class SpeedProbe:
    """Times the micro-kernel periodically; ``take`` reads and resets."""

    def __init__(self):
        self._count = 0
        self._seconds = 0.0

    def _kernel(self, *_signal_args) -> None:
        start = perf_counter()
        acc = 0.0
        for i in range(60):
            acc += float(np.sum(_SMALL * i)) + sum(range(10))
        self._seconds += perf_counter() - start
        self._count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self) -> tuple[int, float]:
        """(kernel runs, seconds spent in them) since the last ``take``.

        Then runs the kernel once, so that the window that starts now has a
        sample even if it is shorter than ``PERIOD_S``."""
        out = (self._count, self._seconds)
        self._count, self._seconds = 0, 0.0
        self._kernel()
        return out


def nominal_seconds(wall_s: float, probe: tuple[int, float]) -> float:
    """``wall_s`` without the probe's own time, at the nominal speed."""
    count, seconds = probe
    return (wall_s - seconds) * NOMINAL_S / (seconds / count)
