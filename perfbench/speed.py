"""Correction of wall times for the machine's momentary speed.

On a shared machine the same deterministic unit of work can take 0.5 s
in one minute and 0.8 s in the next, with no steal time reported and
process CPU time tracking wall time exactly: the host changes how fast
the vCPU runs.  A run of ten seconds sits inside one such phase, so raw
wall times of identical runs spread by up to half their median.

Every timed section is therefore bracketed by readings of a fixed
pure-Python reference loop (interpreter dispatch and integer arithmetic;
it builds no containers, so the garbage collector never runs inside it
and nothing the program leaves on the heap can slow it), and
the section's wall time is scaled by ``NOMINAL_S`` over the mean of the
readings just before and just after it.  The result is the section's
time on a machine running at the nominal speed, still in seconds.  Raw
wall times are reported beside the corrected ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: Iterations of one reference slice.
REFERENCE_LOOPS = 5000

#: Median time of one reference slice on the reference machine (2-CPU
#: x86-64 VM, Python 3.11): the speed that corrected times are scaled to.
NOMINAL_S = 0.0005


def _slice() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


class Speedometer:
    """Takes readings and keeps the wall time they cost, which callers
    leave out of the time they measure."""

    def __init__(self) -> None:
        self.spent = 0.0

    def reading(self) -> float:
        """Seconds per reference slice right now (median of three)."""
        t0 = time.perf_counter()
        value = statistics.median((_slice(), _slice(), _slice()))
        self.spent += time.perf_counter() - t0
        return value


def factor(before: float, after: float) -> float:
    """Scale for a section bracketed by readings ``before``/``after``."""
    return NOMINAL_S / ((before + after) / 2.0)


def correct(raw: Sequence[float], readings: Sequence[float]) -> List[float]:
    """Corrected times of consecutive sections, where ``readings[k]``
    was taken just before section ``k`` and ``readings[-1]`` after the
    last one."""
    return [t * factor(readings[k], readings[k + 1])
            for k, t in enumerate(raw)]
