"""The host's pace: how slowly it runs fixed reference code right now.

The 2-vCPU guests this benchmark runs on change speed with their neighbours:
within seconds, a pure-Python loop can take 1.7 times as long as a moment
before, and slow phases can last minutes.  A median of raw times then moves
by 20-40% between runs of the same code.  So each question is timed between
two readings of ``pace()``, and its time is divided by their mean: the
result is seconds at the pace of ``NOMINAL_S``.

``pace()`` is the geometric mean, over three small reference loops, of each
loop's time over its nominal time.  The loops cover the three kinds of work
in the package: dict and tuple churn (kernel algebra), plain interpreted
arithmetic with calls (the simulation step loop) and numpy array work
(quadrature, sampling, statistics).  They are fixed code of the benchmark,
so a faster or slower program does not change them.

Over 180-second recordings of exact-sweep and sampling, cut into 20-second
windows, the spread of summed median question times (distance between the
quartiles over the median) fell from 0.19 and 0.21 raw to 0.05 and 0.04
with this correction (loops half their present length); any one or two of
the loops alone did worse on one of the workloads.  Readings taken back to
back differ by about 10%, so the loops were then doubled.
"""

from __future__ import annotations

import math
import time

# Typical seconds of each loop below on the machine in NOTES.md (its median
# readings ranged from 0.7 to 1.3 times these); they only set the scale.
NOMINAL_S = {"dict": 0.00904, "arith": 0.00758, "numpy": 0.0075}

_ARRAY = []  # filled on first use, so that set-up can be paced before numpy loads


def _dict_loop():
    d = {}
    for i in range(30_000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i
    return len(d)


def _step(x):
    return x * 3 % 7


def _arith_loop():
    s = 0
    for i in range(60_000):
        s += _step(i)
    return s


def _numpy_loop():
    import numpy as np
    a = _ARRAY[0]
    s = 0.0
    for _ in range(10):
        s += float(np.sort(a[:50_000])[-1]) + float((a * a).sum())
    return s


LOOPS = {"dict": _dict_loop, "arith": _arith_loop, "numpy": _numpy_loop}
PYTHON_LOOPS = ("dict", "arith")


def loop_times(loops=tuple(LOOPS)):
    """Seconds each named reference loop takes now."""
    if "numpy" in loops and not _ARRAY:
        import numpy as np
        _ARRAY.append(np.random.default_rng(0).standard_normal(200_000))
    times = {}
    for name in loops:
        t0 = time.perf_counter()
        LOOPS[name]()
        times[name] = time.perf_counter() - t0
    return times


def pace(loops=tuple(LOOPS)):
    """Current slowness relative to NOMINAL_S: 1.0 at nominal, 1.5 when the
    reference loops take half as long again.  ``loops`` picks a subset, such
    as the pure-Python ones before numpy is imported."""
    times = loop_times(loops)
    return math.exp(sum(math.log(times[k] / NOMINAL_S[k]) for k in loops) / len(loops))
