"""Host speed, read from a fixed pure-Python kernel timed between chunks of
program work.

The benchmark runs on shared hosts whose speed switches between regimes up to
about 2x apart for seconds to minutes at a time (see NOTES.md), longer than
a run can outlast.  So the run times the kernel in a short block before and
after every chunk of about CHUNK_S seconds of program work, and scales the
chunk's times by ``REFERENCE_KERNEL_S / kernel time``: every reported time
is the time the program would take on a host where one kernel call takes
REFERENCE_KERNEL_S.  The kernel is part of the benchmark, never of the
program, so at a given host speed a change to the program moves the scaled
times by the same fraction as the raw ones.
"""

from __future__ import annotations

import time

# One kernel call in the fast regime of the 2-vCPU Xeon VM the benchmark was
# tuned on; the scaled times read as that host's fast-regime times.
REFERENCE_KERNEL_S = 0.0035
# Seconds of program work between two kernel blocks, and the length of a
# block: short enough that the regime seldom changes within a chunk, long
# enough to average the kernel over the host's millisecond-scale jitter.
CHUNK_S = 0.25
BLOCK_S = 0.1


def kernel(n: int = 3000) -> int:
    """Tuple keys, dict and set traffic and a sort: the package's mix."""
    counts: dict = {}
    seen = set()
    acc = 0
    for i in range(n):
        k = (i * 7919) % 1009
        key = (k, i & 7)
        counts[key] = counts.get(key, 0) + 1
        if k in seen:
            acc += 1
        else:
            seen.add(k)
        acc += len(counts) & 3
    return acc + sorted(counts.items())[0][1]


def block(seconds: float = BLOCK_S) -> float:
    """Mean time of one kernel call over a block of at least ``seconds``."""
    calls = 0
    start = time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / calls


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference seconds for work timed between
    two kernel blocks."""
    return REFERENCE_KERNEL_S / ((before + after) / 2)
