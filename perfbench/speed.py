"""How fast this CPU runs exact Python arithmetic right now.

On virtual machines that share their cores the same op can take 25%
longer from one half-minute to the next while the program is unchanged.
A fixed kernel of ``Fraction`` arithmetic, dict updates and a sort (the
library's own mix) is timed between ops, and every measured time is scaled
by ``REFERENCE_S`` over the kernel's local time.  Reported seconds are thus
seconds at reference speed: on a quiet 2-vCPU x86-64 virtual machine running
CPython 3.11 they equal wall seconds.  The kernel does not touch the library,
so a change to the library moves the scaled times exactly as the raw ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import process_time

REFERENCE_S = 0.008  # one kernel run on the reference machine
SAMPLES = 5


def kernel() -> Fraction:
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 500):
        x = Fraction(i % 97, i % 89 + 1)
        acc += x
        seen[x] = seen.get(x, 0) + 1
        if x < acc:
            acc -= x / 2
    sorted(seen)
    return acc


def sample() -> float:
    """Median CPU seconds of SAMPLES kernel runs."""
    times = []
    for _ in range(SAMPLES):
        start = process_time()
        kernel()
        times.append(process_time() - start)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for times measured between two kernel samples."""
    return REFERENCE_S / ((before + after) / 2)
