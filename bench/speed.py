"""Timing that cancels the host's changing CPU speed.

On a shared host the CPU a run gets changes speed from one second to
the next.  On a 2-core shared virtual machine (Python 3.11, numpy
2.4), a fixed pure-Python loop took between 1.07 and 1.68 times its fastest time, in
spells of 2 to 20 seconds, and ten raw runs of ``flowline-hi`` spread by
35% between quartiles.  A clock that also runs a fixed kernel twenty
times a second, from a SIGALRM handler in the timed thread itself,
follows that speed.  A timed region's wall time multiplied by
REFERENCE_KERNEL_S / (median kernel time inside the region) is the time
the region would have taken on a CPU where the kernel takes
REFERENCE_KERNEL_S: about that machine's fast spells.

The kernel is benchmark code and never calls the program, so a program
that gets slower by some factor gets slower by that factor in reference
time too.  The handler costs about 0.4% of the region, on every commit
alike.  A spell that slows the program and the kernel by different
factors is not cancelled: ten normalised runs still spread by about 8%.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REFERENCE_KERNEL_S = 2.0e-4


def _kernel() -> None:
    """Interpreted integer arithmetic, like most of the program's time.

    A numpy pass over a buffer tracked the program worse: its cost
    depends on page faults of the temporaries more than on CPU speed.
    """
    s = 0
    for i in range(3000):
        s += i * i % 7


class SpeedClock:
    """Samples the kernel's duration while started; times regions."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(wall seconds, reference seconds) since ``mark``."""
        t0, i0 = mark
        wall = time.perf_counter() - t0
        if len(self.samples) == i0:  # shorter than one period
            self._sample()
        return wall, wall * REFERENCE_KERNEL_S / statistics.median(
            self.samples[i0:])
