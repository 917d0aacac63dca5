"""Host speed, from a fixed calibration kernel timed next to the work it scales.

The shared host the benchmark was tuned on (2-core x86-64) switches between
faster and slower states that last tens of seconds. CPU time tracks wall time
through them, so the program runs on a slower core rather than losing time
slices. Unscaled, the median op times of ten 30 s runs of the same code had
a quartile distance of up to 24% of their median. Each gated timing is therefore scaled by
REFERENCE_S / (kernel time measured next to it): it reads as seconds on a host
where the kernel takes REFERENCE_S. The raw wall times are printed as well.

The kernel is the benchmark's own code and calls nothing in hilfer_mnc, so a
slower program still reads slower. It mixes the two kinds of work the
workloads spend their time in: interpreted Python and NumPy transcendental
functions on a 4097-element array. It must run while no op is in flight: a
program that left threads busy between ops would slow the kernel and flatter
its own scaled times, which `busy` below detects.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's time in the fast state of the 2-core x86-64 host above;
# a constant, so scaled times of different runs and commits compare
REFERENCE_S = 0.0015
REPEATS = 3
_W = np.linspace(1e-3, 2.0, 4097)


def _kernel() -> float:
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    for _ in range(8):
        s += float(np.sum(_W**0.37 - _W**1.37))
    return s


def kernel_s() -> tuple[float, bool]:
    """Median wall time of the kernel over REPEATS runs, and whether other
    threads of this process were busy meanwhile (CPU time well above wall)."""
    walls = []
    cpu0 = time.process_time()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        walls.append(time.perf_counter() - t0)
    busy = time.process_time() - cpu0 > 1.5 * sum(walls)
    return statistics.median(walls), busy


def scale(kernel_before: float, kernel_after: float) -> float:
    """Factor that turns a wall time between two kernel runs into reference seconds."""
    return REFERENCE_S / (0.5 * (kernel_before + kernel_after))
