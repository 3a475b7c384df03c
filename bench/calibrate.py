"""Host speed, read next to every timed span.

The benchmark's baseline machine shares its vCPUs with other tenants, and
their load slows plain Python by anything from nothing to more than half,
changing within seconds and drifting over minutes.  No choice of which
repetitions to keep removes that: a whole run can fall in a slow stretch.  So
every timed span (a command, an interpreter start) is scaled by a reading of
a fixed piece of interpreter work taken right before and right after it:

    scaled seconds = seconds * REFERENCE_S / mean(reading before, reading after)

`REFERENCE_S` is a constant, so a scaled time reads in seconds of the
baseline machine at its fastest.  The work is a loop of complex floating
point (the spectrum transforms' kind of work, with a function call and an
allocation per step) that touches no data, so what the commands before it
left in the caches cannot move a reading, and a change to `vpal` cannot
either.  Under heavy load it tracked how the factoring, analysis and spectrum
commands slowed better than a loop of integer arithmetic, a loop of big-integer
modular squaring or a mix of them; it still misses some of the slowdown of the
spectrum transforms.  Scaling narrows the host's swings without removing them.
"""

from __future__ import annotations

import cmath
import math
import time

#: Fastest `reading()` on the baseline machine (2 vCPUs, Python 3.11.7).
REFERENCE_S = 0.00064


def reading() -> float:
    """Seconds one fixed piece of interpreter work takes now."""
    start = time.perf_counter()
    acc = 0j
    for x in range(2_000):
        acc += cmath.exp(-2j * math.pi * (x * 7 % 97) / 97) * (x % 5)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two readings into
    seconds of the baseline machine."""
    return REFERENCE_S * 2 / (before + after)
