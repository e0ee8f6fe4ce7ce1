"""Host speed: a fixed reference kernel timed beside the measured work.

The host this benchmark runs on is shared, and its speed drifts by a quarter
for seconds to minutes at a time as neighbours come and go, on wall time and
process time alike.  A run that lands in a slow stretch would read as a
slower program.  So every run times a fixed reference kernel, which never
touches the program, between its units of work, and scales each unit's host
time by how fast the kernel ran around it:

    normalised time = host time x NOMINAL_S / median kernel time

A change to the program moves the host time and leaves the kernel alone, so
it shows in full; a slow stretch of the host moves both and cancels.
README.md ("Steadiness") has the measurements.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: The kernel mixes what the workloads spend their time on: an interpreted
#: loop of LOOPS iterations, then a numpy sort of SORTED doubles.  Together
#: about 1.5 ms on the host below.
LOOPS = 20_000
SORTED = 30_000
_DATA = np.random.default_rng(0).random(SORTED)

#: Median reference-kernel time on the host the benchmark was built on (a
#: 2-CPU Intel Xeon container).  Normalised times are host times on a host
#: that runs the kernel this fast; the constant only sets their scale.
NOMINAL_S = 0.0015


def reference_s() -> float:
    """Host seconds of one pass of the reference kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    np.sort(_DATA)
    return time.perf_counter() - started


class HostSpeed:
    """Reference-kernel samples of one run, and the scale they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(reference_s())

    def mark(self) -> int:
        """Position to pass to :meth:`scale` and :meth:`spent_s` later."""
        return len(self.samples)

    def spent_s(self, since: int = 0) -> float:
        """Host seconds the kernel took since ``since``."""
        return sum(self.samples[since:])

    def scale(self, since: int = 0) -> float:
        """Factor from host time to normalised time, over samples since ``since``."""
        return NOMINAL_S / statistics.median(self.samples[since:])
