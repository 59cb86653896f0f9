"""Host-speed calibration: a fixed CPU kernel timed between episodes.

On a shared machine the CPU speed a process gets drifts by tens of percent
over tens of seconds; the same episode took 68 to 120 ms within two
minutes on the shared 2-core virtual machine this was written on.  That drift
swamps the differences a benchmark exists to find.  So the untraced loop
times this kernel after every episode, and scales each episode's times by
REFERENCE_S over the kernel's time around it: end-to-end times are reported
at the reference speed, where the kernel takes REFERENCE_S.  The kernel
shares no code with perchsim, so a change to perchsim cannot move it, and
its mix of scalar float arithmetic and small numpy calls resembles the
episode loop's.  It is more sensitive to the drift than numpy-bound code:
the planner's slowest calls move least, so run.py leaves plan_ms_p99 in
wall-clock time.  Raw wall-clock figures are printed too.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

#: kernel time at the reporting speed (a typical value on the machine above)
REFERENCE_S = 2.0e-3
REPEATS = 3
#: samples on each side of an op that set its scale; one sample is noisy
HALF_WINDOW = 5


def _kernel() -> float:
    x = 0.0
    for i in range(3000):
        x += math.sin(i * 0.001) * 1.0001 + (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 50)
    for _ in range(200):
        b = ((a * 1.1 + 0.2) * a + 0.3) * a
        x += float(b.sum()) + float(np.sqrt(b * b + 1.0).max())
    return x


def sample() -> float:
    """Fastest of REPEATS timed kernel runs, in seconds."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scales(cal: List[float]) -> List[float]:
    """Per-op factors to the reference speed from the bracketing samples.

    cal[k] is taken before op k and cal[k + 1] after it.  Op k's host speed
    is the median of the samples within HALF_WINDOW of it.
    """
    n_ops = len(cal) - 1
    return [REFERENCE_S / statistics.median(cal[max(0, k + 1 - HALF_WINDOW):k + 1 + HALF_WINDOW])
            for k in range(n_ops)]
