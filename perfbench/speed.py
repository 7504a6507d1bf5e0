"""Speed-corrected timing for a machine whose cores are shared.

On the host this benchmark was built on, neighbours slow user-mode execution
by up to 2x, switching within a second and drifting over minutes; system
time and page faults do not move.  Medians of raw wall time over two
identical 25 s runs then differed by more than the largest bound the
benchmark may set (0.25).  So every segment timed inside a round's process
(an item, an enumeration step) is bracketed by timings of a fixed reference
job in the same process, on the same pinned CPU, and its time is scaled by
NOMINAL_S / (the smaller of the two bracketing reference times): the time
the segment would take where the reference job takes NOMINAL_S.  Set-ups
and CLI processes are corrected in run.py.

The reference job is benchmark code shaped like braceforge's inner loops
(subgroup closure over a Cayley table), so a change to braceforge moves the
corrected times as it moves the raw ones.  Raw times are reported beside the
corrected ones.
"""

from __future__ import annotations

import os
import statistics
import time

NOMINAL_S = 0.0005
_Z15 = tuple(tuple((a + b) % 15 for b in range(15)) for a in range(15))


def _closure(seed: int) -> int:
    members = {0, seed}
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(members):
                for p in (_Z15[x][y], _Z15[y][x]):
                    if p not in members:
                        members.add(p)
                        nxt.append(p)
        frontier = nxt
    return len(members)


def reference_s() -> float:
    """One timing of the reference job (about NOMINAL_S on a quiet machine)."""
    t0 = time.perf_counter()
    for _ in range(2):
        for a in range(15):
            _closure(a)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that reference
    timings and the work they bracket see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedClock:
    """Corrects consecutive segments; each boundary is timed once."""

    def __init__(self) -> None:
        self.ref = reference_s()
        self.refs = [self.ref]

    def correct(self, raw_s: float) -> float:
        """Corrected time of a segment that ended just now after raw_s seconds."""
        after = reference_s()
        before, self.ref = self.ref, after
        self.refs.append(after)
        return raw_s * NOMINAL_S / min(before, after)

    def factor(self) -> float:
        """Correction for work spread over the whole life of this clock."""
        return NOMINAL_S / statistics.median(self.refs)
