"""Exact linear programming over the rationals.

A small two-phase tableau simplex on Fraction arithmetic.  Bland's rule
everywhere, so termination is guaranteed and results are exact; speed is a
non-goal since it serves one program per diagram, the admissibility check
of ``domains.DefectSystem``.

The one entry point solves:  maximize c.x  subject to  a x <= b,  x free,
and returns an optimal point with optimal duals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class LPResult:
    """When OPTIMAL, dual holds y >= 0 per row of a: y.a = c, y.b = objective."""
    status: str
    objective: Fraction | None
    x: list[Fraction] | None
    dual: list[Fraction] | None = None


def maximize(c: list, a: list[list], b: list) -> LPResult:
    """Maximize c.x over {x free : a x <= b}. All data coerced to Fraction."""
    m = len(a)
    n = len(c)
    c = [Fraction(v) for v in c]
    a = [[Fraction(v) for v in row] for row in a]
    b = [Fraction(v) for v in b]

    # free x -> x = p - q with p, q >= 0; slack per row; equality form.
    # columns: p (n), q (n), slack (m), then phase-1 artificials as needed.
    nv = 2 * n + m
    rows = []
    rhs = []
    for i in range(m):
        row = [Fraction(0)] * nv
        for j in range(n):
            row[j] = a[i][j]
            row[n + j] = -a[i][j]
        row[2 * n + i] = Fraction(1)
        if b[i] < 0:
            row = [-v for v in row]
            rhs.append(-b[i])
        else:
            rhs.append(b[i])
        rows.append(row)

    basis = []
    art_cols = []
    for i in range(m):
        # slack column usable as the initial basic variable only if it
        # survived the sign flip with coefficient +1
        sc = 2 * n + i
        if rows[i][sc] == 1:
            basis.append(sc)
        else:
            col = nv + len(art_cols)
            art_cols.append(col)
            basis.append(col)
    total = nv + len(art_cols)
    for i in range(m):
        rows[i] = rows[i] + [Fraction(0)] * len(art_cols)
        if basis[i] >= nv:
            rows[i][basis[i]] = Fraction(1)

    def pivot(objrow, objval, r, col):
        piv = rows[r][col]
        rows[r] = [v / piv for v in rows[r]]
        rhs[r] = rhs[r] / piv
        for i in range(m):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        f = objrow[col]
        if f:
            objrow[:] = [v - f * w for v, w in zip(objrow, rows[r])]
            objval -= f * rhs[r]
        basis[r] = col
        return objval

    def run(objrow, objval, allowed):
        # Bland: entering = least column with negative reduced cost
        while True:
            col = next((j for j in range(allowed) if objrow[j] < 0), None)
            if col is None:
                return OPTIMAL, objval
            best = None
            for i in range(m):
                if rows[i][col] > 0:
                    ratio = rhs[i] / rows[i][col]
                    if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                        best = (ratio, i)
            if best is None:
                return UNBOUNDED, None
            objval = pivot(objrow, objval, best[1], col)

    if art_cols:
        # phase 1: maximize -sum(artificials); reduced costs from basis
        objrow = [Fraction(0)] * total
        for col in art_cols:
            objrow[col] = Fraction(1)
        objval = Fraction(0)
        for i in range(m):
            if basis[i] >= nv:
                objrow = [v - w for v, w in zip(objrow, rows[i])]
                objval -= rhs[i]
        status, objval = run(objrow, objval, total)
        assert status == OPTIMAL  # phase 1 is always bounded above by 0
        if objval != 0:
            return LPResult(INFEASIBLE, None, None)
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] >= nv:
                col = next((j for j in range(nv) if rows[i][j] != 0), None)
                if col is None:
                    continue  # redundant row, harmless to keep
                pivot(objrow, objval, i, col)

    # phase 2 objective over the original (split) variables
    objrow = [Fraction(0)] * total
    for j in range(n):
        objrow[j] = -c[j]
        objrow[n + j] = c[j]
    objval = Fraction(0)
    for i in range(m):
        bc = basis[i]
        f = objrow[bc]
        if f:
            objrow = [v - f * w for v, w in zip(objrow, rows[i])]
            objval -= f * rhs[i]
    status, objval = run(objrow, objval, nv)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    xs = [Fraction(0)] * total
    for i in range(m):
        xs[basis[i]] = rhs[i]
    x = [xs[j] - xs[n + j] for j in range(n)]
    # duals: slack reduced costs (a row negated for b < 0 negated its slack)
    return LPResult(OPTIMAL, objval, x, objrow[2 * n:nv])
