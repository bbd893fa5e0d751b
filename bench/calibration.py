"""Host-speed calibration: a fixed workload timed around every region.

The reference box is a shared 2-core VM whose speed drifts by 20-40 %
over tens of minutes (neighbours, not steal: CPU time drifts with wall).
Two back-to-back ``bench run`` sets of one commit differed by 13-23 % on
every workload, more than any bound the contract allows.  So each
repetition brackets its set-up and its timed region with this
calibration and reports times divided by the bracket's *host factor*:
calibration time now / calibration time on the reference box.  Over a
15-minute drift experiment that cut the spread of a 6 s workload from
0.19 to 0.11 and the largest ratio between ten-run medians from 1.40 to
1.15 (bench/README.md, "Host normalisation").

The calibration never touches ``repro``: it is fixed, seeded code of
the two kinds the library spends its time in — Python containers, heap
and integer arithmetic, and a numpy uint64 ``(a*x + b) % u`` minima
kernel — so a change to the program cannot move it.  It also must not
depend on what the process did before it, hence no allocation inside
the numpy loop and no garbage collection while it runs.  Raw times stay
in every ledger beside the normalised ones.
"""

import gc
import heapq
import random
import time
from typing import Dict

#: Seconds each part takes on the reference box (medians, PR 11).  They
#: only fix the scale — a factor of 1.0 is "the reference box on an
#: ordinary minute" — so they are never re-tuned.
REFERENCE_S = {"python": 0.064, "numpy": 0.102}


def _python_part() -> float:
    t0 = time.perf_counter()
    rng = random.Random(5)
    seen = set()
    counts: Dict[int, int] = {}
    for _ in range(60_000):
        key = rng.randrange(1 << 20)
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
    heap: list = []
    for i in range(30_000):
        heapq.heappush(heap, (i * 7919) % 30_011)
    while heap:
        heapq.heappop(heap)
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def _numpy_part(np) -> float:
    # One preallocated buffer, written in place: a loop that allocated
    # its temporaries would time the allocator, whose behaviour depends
    # on what the process did before (glibc raises its mmap threshold
    # once large blocks have been freed, which made this part 1.8x
    # faster after a 10k-peer run than before it).
    a = np.arange(1, 129, dtype=np.uint64)[:, None]
    keys = np.arange(4000, dtype=np.uint64)[None, :]
    modulus = np.uint64(4294967291)
    buf = np.empty((128, 4000), dtype=np.uint64)
    np.multiply(a, keys, out=buf)  # touch every page before timing
    t0 = time.perf_counter()
    for _ in range(40):
        np.multiply(a, keys, out=buf)
        np.add(buf, a, out=buf)
        np.remainder(buf, modulus, out=buf)
        buf.min(axis=1)
    return time.perf_counter() - t0


def measure() -> Dict[str, float]:
    """Time the calibration once.

    Returns ``{"factor", "seconds", "python_s", "numpy_s"}``; without
    numpy the factor rests on the Python part alone.
    """
    try:
        import numpy as np
    except ImportError:
        np = None
    # The collector's cost grows with the heap the workload built; the
    # calibration must not see it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        python_s = _python_part()
        numpy_s = _numpy_part(np) if np is not None else 0.0
    finally:
        if collecting:
            gc.enable()
    parts = [python_s / REFERENCE_S["python"]]
    if np is not None:
        parts.append(numpy_s / REFERENCE_S["numpy"])
    return {
        "factor": sum(parts) / len(parts),
        "seconds": python_s + numpy_s,
        "python_s": python_s,
        "numpy_s": numpy_s,
    }
