"""Correction for the speed of a shared host.

On a shared host the same pass can take 1.6 times as long from one minute
to the next, in windows that outlast a whole run, so a median over one
run's passes still moves with the host. A fixed pure-Python loop that
allocates and sorts small objects slows down in step with the program: on
a 2-vCPU VM, 15-pass medians of rl pass times ranged over 41% across 150 s,
and the same medians divided by the loop time timed around each pass
ranged over 10%.

The benchmark times the loop right before and right after every measured
interval and reports the interval scaled to a host on which the loop takes
REFERENCE_S. The loop shares no code with the program, so a change to the
program cannot move the correction. The report keeps the wall times too.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.05


def loop_seconds() -> float:
    """Wall time of the fixed calibration loop.

    The cyclic garbage collector is off while the loop runs: the loop makes
    no cycles, and a collection would scan the caller's live objects, which
    would tie the loop's time to the heap instead of the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(40):
            table = {}
            for i in range(2000):
                table[str(i)] = [i, i * 0.5, (i, "x")]
            sorted(table.values(), key=lambda v: -v[1])
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """An interval's wall time at the reference host speed."""
    return seconds * REFERENCE_S / ((loop_before + loop_after) / 2)
