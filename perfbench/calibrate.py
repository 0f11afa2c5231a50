"""Machine-speed reference: a fixed kernel that uses no bvdesk code.

On a shared VM the CPU speed one process gets drifts by tens of percent,
over seconds within a run and between runs minutes apart; on a 2-core Xeon
VM identical requests took 14 ms in one 10 s window and 19 ms in the next,
and process CPU time drifted with wall time.  The worker times this kernel
right before every item.  Each item time is then scaled by
``REFERENCE_NS`` over the median of the kernel times nearest it, so reported
times read as milliseconds on a machine that runs the kernel in exactly
``REFERENCE_NS``.  The kernel shares no code with the program, so a change
to the program moves the scaled times in full.  Raw times stay in the
record of each run.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction
from typing import Sequence

from stats import median

#: Kernel time that scaled times are expressed at; near its time on a 2-core Xeon VM.
REFERENCE_NS = 2_000_000
#: Kernel times whose median scales one item: the drift is one of seconds,
#: and eleven runs steady the single kernel time, which varies by +-30%.
NEAREST = 11


def kernel() -> int:
    """Exact rationals, big-int bit masks, dicts, sets and JSON, as bvdesk uses them."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 3)
        table[i] = acc.numerator & 0xFFFF
    seen = set()
    for i in range(3000):
        seen.add((i * 2654435761) & 0xFFF)
    text = json.dumps([sorted(table.items()), sorted(seen)])
    return len(json.loads(text)[1]) + acc.denominator.bit_length()


def reference_ns() -> int:
    """One timed kernel run; garbage collection is held off meanwhile.

    Holding it off keeps collections of the program's garbage out of the
    reference: they happen in the next item, which is where they belong.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scale(times_ns: Sequence[int], refs_ns: Sequence[int]) -> list[float]:
    """Item times at reference speed.

    ``refs_ns[k]`` is the kernel time taken just before item ``k``.  Item
    ``k`` is scaled by the median of the ``NEAREST`` kernel times taken
    closest to it: those of items ``k - 5`` to ``k + 5``, or the first or
    last ``NEAREST`` of the run near its ends.
    """
    n = len(times_ns)
    if len(refs_ns) != n:
        raise ValueError("one reference time is needed per item")
    width = min(NEAREST, n)
    scaled: list[float] = []
    for k, t in enumerate(times_ns):
        lo = min(max(k - NEAREST // 2, 0), n - width)
        scaled.append(t * REFERENCE_NS / median(refs_ns[lo:lo + width]))
    return scaled
