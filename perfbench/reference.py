"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark runs on shared machines whose speed swings by up to about
1.7x over tens of seconds, as neighbours come and go.  Timing this
kernel between ops and rescaling each op's latency by it cancels most
of that swing.  The kernel is plain Python over the same kinds of work
the library does: exact integer elimination, Fraction arithmetic and
frozenset intersections.  It never calls the library, so no change to
the library can move it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# Timed metrics are scaled to a machine on which one reference run takes
# this long (about the median on the 2-vCPU Xeon VM the benchmark was
# written on).
REF_SECONDS = 0.025

_rng = random.Random(20151026)
_MATRICES = [
    [[_rng.randrange(-(10**12), 10**12) for _ in range(7)] for _ in range(7)]
    for _ in range(160)
]
_VECTORS = [
    [Fraction(_rng.randrange(-(10**6), 10**6), _rng.randrange(1, 10**4)) for _ in range(6)]
    for _ in range(60)
]
_SETS = [frozenset(_rng.sample(range(20), 6)) for _ in range(300)]


def _bareiss(rows: list[list[int]]) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    prev, sign = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak, pk = a[k], a[k][k]
        for i in range(k + 1, n):
            ai, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                ai[j] = (pk * ai[j] - aik * ak[j]) // prev
            ai[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def _kernel() -> tuple:
    dets = sum(_bareiss(m) for m in _MATRICES)
    dots = sum(sum(x * y for x, y in zip(a, b)) for a in _VECTORS for b in _VECTORS[:6])
    meets = sum(1 for a in _SETS for b in _SETS[:120] if len(a & b) >= 3)
    return dets, dots, meets


def reference_seconds() -> float:
    """Wall seconds one run of the kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
