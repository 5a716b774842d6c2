"""Reference speed: times scaled by a fixed probe run between the ops.

On a shared host the interpreter's speed follows the neighbours' load: a
2-core x86 VM was seen running the same pure-Python loop at 1.4 ms and at
2.7 ms per call, switching within seconds and staying slow for minutes, with
CPU time equal to wall time.  Raw wall times of one run then measure the
neighbours as much as the program, and two sets of runs disagree by more
than any useful bound.

So the timed loop runs a fixed piece of pure-Python work, the probe, after
every stretch of about ``SEGMENT_S`` of ops, for a quarter of that stretch.
The probe shares no code with the program.  Each op's time is scaled by
``REFERENCE_S`` over the probe's time per call, averaged over the probe runs
just before and just after it.  A slow stretch of the host slows op and
probe alike and cancels; a slower program is slower against a probe that
did not change.  Reported times are therefore seconds at the reference
speed: the probe taking ``REFERENCE_S`` per call, about what it takes on an
uncontended core of that VM.  The run's context line gives the median
slow-down the probe saw, so the wall-clock figure can be recovered.

The probe walks a small fixed graph kept as tuples of ints, and counts the
walks in a dict keyed by string tuples, then sorts rendered lines: the same
kinds of work the matcher, the bags and rendering do.  It makes no
reference cycles, and the garbage collector is off while it runs, so the
program's heap does not change how long it takes.
"""

from __future__ import annotations

import gc
import statistics
import time

# The probe's time per call at the reference speed.
REFERENCE_S = 0.0011
# Ops are timed in stretches of about this long between two probe runs...
SEGMENT_S = 0.05
# ...and each probe run lasts this share of the stretch before it.
PROBE_SHARE = 0.25

_NODES = 120
_ADJ = tuple(tuple((i * 7 + j * 13) % _NODES for j in (1, 2, 3)) for i in range(_NODES))


def probe() -> int:
    """One call of the fixed reference work."""
    bag: dict[tuple[str, str], int] = {}
    for start in range(0, _NODES, 4):
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            key = (f"v{path[0]}", f"v{node}")
            bag[key] = bag.get(key, 0) + 1
            if len(path) < 4:
                stack.extend((m, path + (m,)) for m in _ADJ[node] if m % 10 != 3)
    lines = sorted("\t".join(key) + f"\t{count}" for key, count in bag.items())
    return len(lines)


def probe_seconds(duration: float) -> float:
    """Run the probe for about ``duration`` seconds (at least once) and
    return its time per call."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        calls = 0
        t0 = time.perf_counter()
        while True:
            probe()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= duration:
                return elapsed / calls
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Turns measured seconds into reference seconds.

    ``scale(seconds)`` is called right after a stretch of work that took
    ``seconds``; it runs the probe and returns the factor by which that
    stretch's times are multiplied.
    """

    def __init__(self) -> None:
        self._last = probe_seconds(PROBE_SHARE * SEGMENT_S)
        self.slowdowns: list[float] = []

    def scale(self, seconds: float) -> float:
        now = probe_seconds(PROBE_SHARE * max(seconds, SEGMENT_S))
        per_call = (self._last + now) / 2
        self._last = now
        self.slowdowns.append(per_call / REFERENCE_S)
        return REFERENCE_S / per_call

    def median_slowdown(self) -> float:
        """Median over the stretches of measured time per reference time."""
        return statistics.median(self.slowdowns) if self.slowdowns else 1.0
