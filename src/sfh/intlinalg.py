"""Exact integer matrix routines: Smith form and kernels.

Matrices are lists of lists of Python ints, so every computation here is
exact at arbitrary precision.  The sizes that show up in practice are small
(tens of rows, mostly zero), and the Smith form is set up once per diagram,
so it skips what a unit pivot makes needless and keeps u sparse; the other
routines are written for clarity.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (u, s, v) with s = u * a * v diagonal and u, v unimodular.

    Diagonal entries are nonnegative and each divides the next.  Pivoting is
    deterministic: smallest nonzero magnitude in the trailing block, ties by
    position, so the scan stops at the first entry of magnitude 1 in
    row-major order.  The pivot is chosen again after every elimination
    pass; one kept for the whole diagonal position lets the remainder steps
    and folds grow the trailing block's entries to thousands of digits.
    A pivot of magnitude 1 divides everything, so its pass clears its row
    and column and needs no divisibility check.  The rows of u are kept
    sparse (column -> nonzero entry) while eliminating, since row operations
    on a defect matrix touch few of them, and are made dense on return.
    """
    s = [row[:] for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u: list[dict[int, int]] = [{i: 1} for i in range(m)]
    v = identity(n)
    # rows t.. of s are zero left of column t, and rows ..t-1 are finished
    # (zero off the diagonal), so every pass below works on rows t.. only
    t = 0
    while True:
        pivot = None
        for i in range(t, m):
            row = s[i]
            if 1 in row or -1 in row:
                pivot = (i, min(row.index(x) for x in (1, -1) if x in row))
                break
        if pivot is None:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = s[i][j]
                    if x and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
        pi, pj = pivot
        s[t], s[pi] = s[pi], s[t]
        u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in s[t:]:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        top = s[t]
        p = top[t]
        # clear row and column t by remainder steps
        dirty = False
        prow = [(j, x) for j, x in enumerate(top) if x]
        for i in range(t + 1, m):
            row = s[i]
            if row[t]:
                c = -(row[t] // p)
                for j, x in prow:
                    row[j] += c * x
                _add_sparse(u[i], u[t], c)
                dirty = dirty or row[t] != 0
        rows = [row for row in s[t:] if row[t]] + [row for row in v if row[t]]
        for j in range(t + 1, n):
            if top[j]:
                c = -(top[j] // p)
                for row in rows:
                    row[j] += c * row[t]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        # the pivot must divide everything in the trailing block, or the
        # divisibility chain d1 | d2 | ... fails; fold an offender in
        if abs(p) != 1:
            bad = next((i for i in range(t + 1, m)
                        if any(s[i][j] % p for j in range(t + 1, n))), None)
            if bad is not None:
                s[t] = [x + y for x, y in zip(top, s[bad])]
                _add_sparse(u[t], u[bad], 1)
                continue
        if p < 0:
            s[t] = [-x for x in top]
            u[t] = {k: -x for k, x in u[t].items()}
        t += 1
    dense = [[0] * m for _ in range(m)]
    for out, row in zip(dense, u):
        for k, x in row.items():
            out[k] = x
    return dense, s, v


def _add_sparse(dst: dict[int, int], src: dict[int, int], c: int) -> None:
    # dst += c * src, dropping entries that cancel
    for k, x in src.items():
        y = dst.get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def kernel_basis(snf) -> list[list[int]]:
    """Integer basis of {x : a x = 0}, as a list of length-n vectors, from
    snf = smith_normal_form(a) of a matrix a with at least one row.

    The basis generates the full kernel lattice (saturated, since it comes
    from unimodular column operations).  Output is put in column Hermite
    form so callers get a canonical, triangular generating set.
    """
    _, s, v = snf
    m, n = len(s), len(v)
    r = sum(1 for i in range(min(m, n)) if s[i][i] != 0)
    return hermite_columns([row[j] for row in v] for j in range(r, n))


def hermite_columns(vectors: Iterable[Sequence[int]]) -> list[list[int]]:
    """Column Hermite form of the lattice spanned by the given vectors.

    Returns the nonzero columns as new lists, each with positive leading
    (topmost nonzero) entry, echeloned by leading row.  Column operations
    only, so the lattice is unchanged.
    """
    cols = [list(c) for c in vectors]
    n = len(cols[0]) if cols else 0
    done = []
    for row in range(n):
        if not cols:
            break
        # gcd-reduce all columns with a nonzero entry in this row into one
        while True:
            live = [c for c in cols if c[row] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda c: abs(c[row]))
            base = live[0]
            for c in live[1:]:
                q = c[row] // base[row]
                for i in range(n):
                    c[i] -= q * base[i]
        if live:
            c = live[0]
            if c[row] < 0:
                for i in range(n):
                    c[i] = -c[i]
            done.append(c)
            cols.remove(c)
    return done
