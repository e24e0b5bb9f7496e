"""A fixed stdlib kernel that gauges how fast this machine runs Python now.

On a shared machine the same request can run 1.7x slower for minutes at a
time, and the kernel slows with it.  The kernel mixes the work the program
does (integer fraction-free elimination, float rotations, ``Fraction`` sums)
and never touches ``meetjoin``, so its time tracks the machine and not the
program.  Timings are reported scaled to the kernel's nominal speed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction


def _kernel() -> None:
    n = 16
    a = [[(i * 7 + j * 13) % 17 + (40 if i == j else 0) for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    x = [float(i) for i in range(200)]
    for _ in range(60):
        for i in range(199):
            x[i], x[i + 1] = 0.6 * x[i] - 0.8 * x[i + 1], 0.8 * x[i] + 0.6 * x[i + 1]
    sum(Fraction(1, k) for k in range(1, 120))


def reference_s(repeats: int = 3) -> float:
    """Best time of the kernel over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


# The kernel's best time on the machine the baseline was recorded on (2-core
# VM, CPython 3.11, quiet): the speed every scaled time refers to.
REFERENCE_NOMINAL_S = 0.0017
WINDOW = 2


def scale(samples: list[dict]) -> None:
    """Add ``scaled_s`` to each sample: its ``seconds`` at the nominal speed.

    A sample's local speed is the mean kernel time over the samples within
    ``WINDOW`` places of it, in the order they were taken, leaving out the
    largest.  The mean follows a machine that flickers between fast and slow
    as a long request sees it; dropping the largest keeps one disturbed
    kernel run from skewing its neighbours.
    """
    refs = [sample["ref_s"] for sample in samples]
    for i, sample in enumerate(samples):
        window = sorted(refs[max(0, i - WINDOW):i + WINDOW + 1])
        local = statistics.fmean(window[:-1] or window)
        sample["scaled_s"] = sample["seconds"] * REFERENCE_NOMINAL_S / local
