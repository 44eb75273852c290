"""Wall time scaled to a reference speed.

The host's speed drifts by up to 1.7x between and within runs, because
other tenants share its cores.  Every timed region is therefore accompanied
by a fixed reference loop that uses only the standard library: three loops
just before, three just after, and one every ``TICK_S`` during the region,
from an interval timer.  The ticks' own time is taken off the region's wall
time.  The region is reported as its wall time scaled to a host on which the
loop takes ``REFERENCE_S``::

    scaled = wall * REFERENCE_S / (mean reference loop time)

The mean weights the median of the six edge loops as two ticks, and clips
each tick at twice the median of all loops.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1.5e-3
TICK_S = 0.2


def _reference_loop() -> float:
    """Time of one pass of interpreter work like oddlex's: Fractions,
    tuples, sorting, dicts."""
    start = perf_counter()
    acc, items = Fraction(0), []
    for i in range(150):
        f = Fraction(i % 7 - 3, i % 5 + 1)
        acc += f
        items.append((abs(f), str(f), (i, -i)))
    items.sort()
    counts: dict = {}
    for k, (_a, text, _t) in enumerate(items):
        counts[text] = counts.get(text, 0) + k
    return perf_counter() - start


def timed(fn) -> tuple:
    """(result, scaled seconds, wall seconds) of ``fn()``."""
    edges = [_reference_loop() for _ in range(3)]
    ticks: list[float] = []

    def tick(_signum, _frame):
        ticks.append(_reference_loop())

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    start = perf_counter()
    try:
        result = fn()
    finally:
        wall = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    edges += [_reference_loop() for _ in range(3)]
    wall -= sum(ticks)
    edge = statistics.median(edges)
    # A tick that was descheduled takes ten times as long; clipped, it can no
    # longer pull the mean far from the region's speed.
    cap = 2 * statistics.median(edges + ticks)
    reference = (2 * edge + sum(min(t, cap) for t in ticks)) / (2 + len(ticks))
    return result, wall * REFERENCE_S / reference, wall
