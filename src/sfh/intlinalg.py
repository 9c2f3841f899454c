"""Exact integer matrix routines: Smith form and kernels.

Matrices are lists of lists of Python ints, so every computation here is
exact at arbitrary precision.  The sizes that show up in practice are tiny
(tens of rows), so clarity wins over asymptotics throughout.
"""
from __future__ import annotations


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(mid):
            c = ai[k]
            if c:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (u, s, v) with s = u * a * v diagonal and u, v unimodular.

    Diagonal entries are nonnegative and each divides the next.  Pivoting is
    deterministic: smallest nonzero magnitude in the trailing block, ties by
    position.  The pivot is chosen again after every elimination pass; one
    kept for the whole diagonal position lets the remainder steps and folds
    grow the trailing block's entries to thousands of digits.
    """
    s = [row[:] for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pivot = None
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
        swap_rows(t, pi)
        swap_cols(t, pj)
        p = s[t][t]
        # clear row and column t by remainder steps
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                add_row(t, i, -(s[i][t] // p))
                dirty = dirty or s[i][t] != 0
        for j in range(t + 1, n):
            if s[t][j]:
                add_col(t, j, -(s[t][j] // p))
                dirty = dirty or s[t][j] != 0
        if dirty:
            continue
        # the pivot must divide everything in the trailing block, or the
        # divisibility chain d1 | d2 | ... fails; fold an offender in
        bad = next((i for i in range(t + 1, m)
                    if any(s[i][j] % p for j in range(t + 1, n))), None)
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if p < 0:
            negate_row(t)
        t += 1
    return u, s, v


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
    cols = []
    for j in range(r, n):
        cols.append([v[i][j] for i in range(n)])
    return hermite_columns([list(c) for c in zip(*cols)]) if cols else []


def hermite_columns(bmat: list[list[int]]) -> list[list[int]]:
    """Column Hermite form of the column lattice spanned by bmat.

    bmat is n x k (columns are generators).  Returns the nonzero columns as
    vectors, each with positive leading (topmost nonzero) entry, echeloned
    by leading row.  Column operations only, so the lattice is unchanged.
    """
    n = len(bmat)
    k = len(bmat[0]) if n else 0
    cols = [[bmat[i][j] for i in range(n)] for j in range(k)]
    done = []
    row = 0
    while row < n and cols:
        live = [c for c in cols if c[row] != 0]
        if not live:
            row += 1
            continue
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
        lead = [c for c in cols if c[row] != 0]
        if lead:
            c = lead[0]
            if c[row] < 0:
                for i in range(n):
                    c[i] = -c[i]
            # reduce previously finished columns? not needed for our use;
            # echelon structure (distinct leading rows) is what callers rely on
            done.append(c)
            cols.remove(c)
        row += 1
    return done

