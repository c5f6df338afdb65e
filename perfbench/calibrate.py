"""Host-speed calibration: a fixed pure-Python loop that shares no code with the program.

The reference host changes speed by up to about 2x, for fractions of a second
to minutes at a time, while a process's CPU time keeps pace with wall time
(see README.md, "Host noise"). HostSpeed times this loop every 50 ms of wall
time from a timer signal, in the benchmark's only thread, and takes the time
the loop used out of whatever it interrupted. The runner divides each timing
by the host's slowdown over that interval, the median loop time over
REFERENCE_NS, which reports it at the host's usual speed. The loop builds,
hashes, counts and sorts small frozen dataclass values, the same kind of
interpreter work as the program's model code, but it never calls the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

# Median time of one calibration_loop() on the reference host (2 CPUs,
# Python 3.11.7) at its usual speed.
REFERENCE_NS = 2_300_000
PERIOD_S = 0.05


@dataclass(frozen=True)
class _Point:
    side: str
    index: int


def calibration_loop() -> int:
    total = 0
    for r in range(15):
        points = [_Point("AB"[i & 1], (i * 7 + r) % 29) for i in range(48)]
        counts: dict[_Point, int] = {}
        for p in points:
            counts[p] = counts.get(p, 0) + 1
        ordered = sorted(counts, key=lambda p: (counts[p], p.index, p.side))
        total += len(frozenset(points)) + len(ordered)
    return total


class HostSpeed:
    """Loop times sampled every PERIOD_S of wall time while the context is open.

    `stolen_ns` is the total time spent sampling; a caller subtracts its
    growth over an interval from that interval's measured time.
    """

    def __init__(self) -> None:
        self.at_ns = array("q")
        self.ns = array("q")
        self.stolen_ns = 0

    def __enter__(self) -> "HostSpeed":
        for _ in range(5):  # warm the loop so the first samples are not cold
            calibration_loop()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self) -> None:
        start = perf_counter_ns()
        calibration_loop()
        took = perf_counter_ns() - start
        self.at_ns.append(start)
        self.ns.append(took)
        self.stolen_ns += took

    def slowdown(self, start_ns: int | None = None, end_ns: int | None = None) -> float:
        """Median loop time over the reference, from the samples taken between
        start_ns and end_ns plus the last one before and the first one after;
        from all samples when no interval is given. Above 1: slower than usual."""
        if start_ns is None:
            return statistics.median(self.ns) / REFERENCE_NS
        first = max(0, bisect.bisect_left(self.at_ns, start_ns) - 1)
        stop = bisect.bisect_right(self.at_ns, end_ns) + 1
        return statistics.median(self.ns[first:stop]) / REFERENCE_NS
