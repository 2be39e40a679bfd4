"""A fixed pure-Python loop that gauges how fast the host runs at the moment.

The benchmark's host shares its cores with other machines, and the speed of
the same single-threaded code flips between a fast and a slow state (a
factor up to 1.8) within seconds and drifts over minutes.  Timing this loop
right before and right after a stretch of work and scaling the stretch's
time by ``REFERENCE_S`` over their mean gives the time it would take at a
fixed speed: the speed at which the loop takes ``REFERENCE_S`` seconds.
This holds while the host stays in one state, so stretches are kept short:
one operation of a pass, or, inside an operation, the search decisions up to
the first decision boundary after ``SPLIT_S``.

The loop does not call into biramsey, so a change to the engine cannot
change it; it runs only between calls, never alongside one.
"""

from __future__ import annotations

import time

LOOP = 50_000
# Seconds the loop takes at the reference speed: about its time on an idle
# core of the 2-vCPU Xeon virtual machine with CPython 3.11 where the
# baseline was taken.  Scaled timings are seconds at that speed.
REFERENCE_S = 0.010
SPLIT_S = 0.2  # shortest stretch cut at a decision boundary


def reference_time() -> float:
    """Seconds one run of the loop takes now."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(LOOP):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
        acc += len(table)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two loop timings, at the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)


class Gauge:
    """Cuts a pass into segments, each timed between two runs of the reference loop.

    ``split`` closes the running segment and times the loop; the loop's own
    time is in no segment.  ``split(min_s)`` leaves a segment shorter than
    ``min_s`` open, so short calls are gauged together.
    """

    def __init__(self):
        self.refs = [reference_time()]
        self.segments: list[float] = []
        self._start = time.perf_counter()

    def split(self, min_s: float = 0.0) -> None:
        now = time.perf_counter()
        if now - self._start < min_s:
            return
        self.segments.append(now - self._start)
        self.refs.append(reference_time())
        self._start = time.perf_counter()

    def scaled_sum(self, first: int, last: int) -> float:
        """Segments ``first`` to ``last - 1`` together, at the reference speed."""
        return sum(scaled(self.segments[k], self.refs[k], self.refs[k + 1]) for k in range(first, last))
