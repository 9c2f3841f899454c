"""How fast the host runs Python right now, from a fixed reference kernel.

On a shared host the clock speed available to one process drifts by tens of
percent within seconds, and process CPU time drifts with wall time, so the
drift is speed, not preemption.  The benchmark therefore times this kernel
between operations and rescales each operation's time by
``REFERENCE_S / kernel time around it``: the result is the time the
operation would have taken with the kernel at its reference speed.

The kernel is the same kind of work as the program (integer and Fraction
row operations on small lists of lists) but uses no code from ``sfh``, so
a change to the program does not change it.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# a round number near the best-of-3 kernel time on a quiet 2-vCPU host with
# Python 3.11; it only sets the scale of the reported seconds
REFERENCE_S = 0.0015


def _work() -> int:
    n = 7
    a = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 4) for j in range(n)]
         for i in range(n)]
    # Gauss-Jordan elimination over the rationals
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    # integer matrix products
    m = [[(i * j + 3) % 11 - 5 for j in range(12)] for i in range(12)]
    for _ in range(3):
        m = [[sum(x * y for x, y in zip(row, col)) % 1009 for col in zip(*m)]
             for row in m]
    return sum(map(sum, m)) + sum(1 for row in a for x in row if x)


def kernel_seconds(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of the kernel."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best
