"""Machine-speed probes, so that case times are stated at one fixed speed.

On a shared machine, other tenants slow this process by up to 1.8x for
tens of seconds at a time; its CPU time slows with its wall time, so no
clock of the process's own can tell the program's cost from the machine's
load. A probe is a fixed piece of pure-Python work that never calls
flipwide: bit-set breadth-first search over a fixed graph, the kind of
work the program does. The benchmark runs one between cases every
``PROBE_EVERY`` seconds, and states each timed interval at reference speed:

    seconds at reference speed = seconds measured
                                 * REFERENCE_PROBE_S / local probe seconds

where the local probe time is the median of the ``NEAR`` probes before and
the ``NEAR`` probes after the interval. ``REFERENCE_PROBE_S`` is the
probe's time on an unloaded 2-core Intel Xeon VM at 2.1 GHz under
CPython 3.11, so on that machine, unloaded, the stated seconds are the
measured ones. The probe never calls flipwide, so a change to flipwide
does not change the work the probe times.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_EVERY = 0.25
NEAR = 4
REFERENCE_PROBE_S = 0.0034

_N = 600
_SOURCES = range(0, _N, 2)
_RADIUS = 3


def _graph() -> list[int]:
    rng = random.Random(20220628)
    rows = [0] * _N
    for _ in range(3 * _N):
        u, v = rng.randrange(_N), rng.randrange(_N)
        if u != v:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


_ROWS = _graph()


def _work() -> int:
    total = 0
    for s in _SOURCES:
        seen = front = 1 << s
        for _ in range(_RADIUS):
            reach = 0
            while front:
                low = front & -front
                reach |= _ROWS[low.bit_length() - 1]
                front ^= low
            front = reach & ~seen
            seen |= front
        total += seen.bit_count()
    return total


class Pacer:
    """Probes the machine's speed and rescales intervals to reference speed."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        # An untimed first round warms the caches, so the timed round
        # depends less on what the case before it left there.
        _work()
        start = perf_counter()
        _work()
        end = perf_counter()
        self.at.append(start)
        self.took.append(end - start)

    def maybe_probe(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Reference speed over local speed for the interval [start, end]."""
        lo = max(0, bisect_left(self.at, start) - NEAR)
        hi = bisect_right(self.at, end) + NEAR
        return REFERENCE_PROBE_S / statistics.median(self.took[lo:hi])
