"""Exact linear programming over the rationals.

A small one-phase tableau simplex on Fraction arithmetic.  Bland's rule, so
termination is guaranteed and results are exact; speed is a non-goal since
it serves one program per diagram, the admissibility check of
``domains.DefectSystem``.  That program's right-hand side is 0 or 1, so
x = 0 is feasible and the slack basis is a starting vertex; the simplex
starts there, and so it takes only b >= 0.

The one entry point solves:  maximize c.x  subject to  a x <= b,  x free,
with b >= 0, and returns an optimal point with optimal duals.  Its one
caller's program is bounded, so an unbounded one raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LPResult:
    """An optimum; dual holds y >= 0 per row of a: y.a = c, y.b = objective."""
    objective: Fraction
    x: list[Fraction]
    dual: list[Fraction]


def maximize(c: list, a: list[list], b: list) -> LPResult:
    """Maximize c.x over {x free : a x <= b}, starting at x = 0.  All data
    coerced to Fraction; raises ValueError unless b >= 0, and when c.x is
    unbounded above."""
    m = len(a)
    n = len(c)
    c = [Fraction(v) for v in c]
    rhs = [Fraction(v) for v in b]
    if any(v < 0 for v in rhs):
        raise ValueError("maximize needs b >= 0, so that x = 0 is feasible")

    # free x -> x = p - q with p, q >= 0; slack per row; equality form.
    # columns: p (n), q (n), slack (m); the slacks are the starting basis.
    nv = 2 * n + m
    rows = []
    for i, arow in enumerate(a):
        arow = [Fraction(v) for v in arow]
        slack = [Fraction(0)] * m
        slack[i] = Fraction(1)
        rows.append(arow + [-v for v in arow] + slack)
    basis = list(range(2 * n, nv))
    # the objective row holds reduced costs; the slacks cost nothing
    objrow = [-v for v in c] + c + [Fraction(0)] * m
    objval = Fraction(0)

    # Bland: entering = least column with negative reduced cost, leaving =
    # least ratio, ties to the least basic column
    while (col := next((j for j in range(nv) if objrow[j] < 0), None)) is not None:
        best = None
        for i in range(m):
            if rows[i][col] > 0:
                ratio = rhs[i] / rows[i][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise ValueError("maximize found c.x unbounded above")
        r = best[1]
        piv = rows[r][col]
        rows[r] = [v / piv for v in rows[r]]
        rhs[r] = rhs[r] / piv
        for i in range(m):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        f = objrow[col]
        objrow = [v - f * w for v, w in zip(objrow, rows[r])]
        objval -= f * rhs[r]
        basis[r] = col

    xs = [Fraction(0)] * nv
    for i in range(m):
        xs[basis[i]] = rhs[i]
    x = [xs[j] - xs[n + j] for j in range(n)]
    # duals: the slacks' reduced costs
    return LPResult(objval, x, objrow[2 * n:])
