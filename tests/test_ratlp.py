"""Exact simplex vs a vertex-enumeration oracle on random small programs."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from sfh import ratlp


def _solve_square(rows, rhs):
    # Gaussian elimination over Fractions; None when singular
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _oracle_max(c, a, b):
    """Best objective over all vertices of {x : ax <= b}; assumes the
    feasible set is bounded and nonempty when a vertex exists."""
    n = len(c)
    best = None
    for idx in itertools.combinations(range(len(a)), n):
        x = _solve_square([a[i] for i in idx], [b[i] for i in idx])
        if x is None:
            continue
        if all(sum(Fraction(a[i][j]) * x[j] for j in range(n)) <= b[i]
               for i in range(len(a))):
            val = sum(Fraction(c[j]) * x[j] for j in range(n))
            if best is None or val > best:
                best = val
    return best


def test_simplex_matches_vertex_enumeration():
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        n = rng.randrange(1, 4)
        rows = rng.randrange(1, 5)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(rows)]
        b = [rng.randrange(0, 7) for _ in range(rows)]
        # box constraints guarantee boundedness and vertex existence
        for j in range(n):
            for sign in (1, -1):
                row = [0] * n
                row[j] = sign
                a.append(row)
                b.append(5)
        c = [rng.randrange(-4, 5) for _ in range(n)]
        res = ratlp.maximize(c, a, b)
        # b >= 0 holds x = 0, and the box bounds the set, so a vertex wins
        want = _oracle_max(c, a, b)
        assert res.objective == want
        # reported point is feasible and achieves the objective
        assert all(
            sum(Fraction(a[i][j]) * res.x[j] for j in range(n)) <= b[i]
            for i in range(len(a)))
        assert sum(Fraction(c[j]) * res.x[j] for j in range(n)) == want
        # the duals certify optimality: y >= 0, y.a = c and y.b = objective
        y = res.dual
        assert len(y) == len(a) and all(v >= 0 for v in y)
        assert all(sum(y[i] * a[i][j] for i in range(len(a))) == c[j]
                   for j in range(n))
        assert sum(v * bi for v, bi in zip(y, b)) == want
        checked += 1
    assert checked == 150


def test_unbounded_detected():
    with pytest.raises(ValueError, match="unbounded"):
        ratlp.maximize([1], [[-1]], [0])  # max x, x >= 0
    with pytest.raises(ValueError, match="unbounded"):
        ratlp.maximize([1, 0], [[-1, 0], [0, 1], [0, -1]], [0, 1, 1])


def test_negative_rhs_rejected():
    # the simplex starts at x = 0, so it takes only b >= 0
    with pytest.raises(ValueError, match="b >= 0"):
        ratlp.maximize([1], [[1], [-1]], [-1, 0])


def test_exact_fractions():
    # optimum at a non-integer vertex: x = 3/2 from 2x <= 3
    res = ratlp.maximize([1], [[2]], [3])
    assert res.objective == Fraction(3, 2)
    res = ratlp.maximize([1], [[2], [-1]], [3, 0])
    assert res.objective == Fraction(3, 2)
