"""A fixed computation that gauges how fast the machine runs right now.

On a shared host the whole machine switches between a fast and a slow
state, up to 1.8 times apart, for seconds to minutes at a time, and every
part of a pass slows together.  So each timed part of a pass, and each
set-up, sits between two readings of this computation, and its wall time
is multiplied by ``REF_SECONDS`` over their mean.  The metrics then read
as seconds on a machine running at the speed the baseline was measured at.
The computation uses only the standard library, so no change to
pathtrace can move it.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

REF_SECONDS = 0.006  # reading() on the 2-core machine of the baseline, in its fast state


def work() -> int:
    """Dict, string, hashing and sorting work, the mix the library does."""
    table = {}
    for i in range(5000):
        key = f"r{i % 97}:{i}"
        table[key] = hashlib.sha256(key.encode()).digest()[:8]
    return sum(len(k) + v[0] for k, v in sorted(table.items()))


def reading(repeats: int = 3) -> float:
    """Seconds that work() takes just now: the median of a few runs, which
    rides out a momentary stall."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def speed(before: float, after: float) -> float:
    """Factor that turns wall time spent between two readings into
    reference seconds."""
    return REF_SECONDS / ((before + after) / 2)
