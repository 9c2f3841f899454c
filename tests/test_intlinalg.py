"""Randomized checks of the exact integer linear algebra kernel."""
from __future__ import annotations

import random
import signal

from sfh import intlinalg
from sfh.builders import build_example
from sfh.domains import defect_system
from sfh.moves import permute_ids

from oracles import dense_smith_normal_form, mat_mul, solve


def _mat_eq(a, b):
    return a == b


def _solve(a, b):
    snf = intlinalg.smith_normal_form(a)
    return solve(snf, intlinalg.mat_vec(snf[0], b))


def _det(a):
    # Bareiss, exact integer determinant of a square matrix
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def test_snf_random():
    rng = random.Random(12)
    for _ in range(80):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        u, s, v = intlinalg.smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == s
        # diagonal, nonnegative, divisibility chain
        diag = []
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
            if i < cols:
                diag.append(s[i][i])
        assert all(x >= 0 for x in diag)
        for p, q in zip(diag, diag[1:]):
            if q:
                assert p != 0 and q % p == 0
        # transforms are unimodular
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1


def test_snf_relabeled_torus_lens_stays_small():
    # this relabeling's 40 x 19 defect matrix made pivots chosen once per
    # diagonal position grow the trailing block past 4,000 digits; the alarm
    # turns such a run into a failure instead of a hang
    a, _ = defect_system(permute_ids(build_example("torus_lens", (20,)),
                                     1250219996))

    def too_slow(signum, frame):
        raise TimeoutError("smith_normal_form ran for over 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        u, s, v = intlinalg.smith_normal_form(a)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert mat_mul(mat_mul(u, a), v) == s
    diag = [s[i][i] for i in range(len(a[0]))]
    assert diag == [1] * 18 + [20]
    assert sum(1 for row in s for x in row if x) == len(diag)


def setup_diagrams():
    """spheres(1..6), torus_lens(1..20) and lens_knot(1..20), each also
    under two relabelings; torus_lens(1) has curve loops at its crossing."""
    for name, params in (("spheres", range(1, 7)), ("torus_lens", range(1, 21)),
                         ("lens_knot", range(1, 21))):
        for p in params:
            d = build_example(name, (p,))
            yield d
            for seed in (7, 1250219996):
                yield permute_ids(d, seed)


def test_snf_matches_dense_oracle_on_random_matrices():
    # small entries with 2, 3, 4 and 6 give non-unit and negative pivots and
    # blocks that a pivot does not divide, so the folds run too
    rng = random.Random(78)
    entries = (1, 2, 3, 4, 6, -1, -2, -3, -4, -6)
    non_unit = 0
    for _ in range(2000):
        rows, cols = rng.randint(1, 10), rng.randint(1, 8)
        density = rng.uniform(0.1, 1)
        a = [[rng.choice(entries) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        got = intlinalg.smith_normal_form(a)
        assert got == dense_smith_normal_form(a), a
        non_unit += any(got[1][i][i] > 1 for i in range(min(rows, cols)))
    assert non_unit > 100


def test_snf_matches_dense_oracle_on_defect_matrices():
    count = 0
    for d in setup_diagrams():
        a = d.defects.rows or [[0] * len(d.interior_regions)]
        assert intlinalg.smith_normal_form(a) == dense_smith_normal_form(a), d.name
        count += 1
    assert count == 138


def test_kernel_random():
    rng = random.Random(34)
    for _ in range(80):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        basis = intlinalg.kernel_basis(intlinalg.smith_normal_form(a))
        for vec in basis:
            assert intlinalg.mat_vec(a, vec) == [0] * rows
        # rank-nullity over Q
        u, s, v = intlinalg.smith_normal_form(a)
        rank = sum(1 for i in range(min(rows, cols)) if s[i][i])
        assert len(basis) == cols - rank
        # kernel membership is detected: every small kernel vector reduces
        # to zero against the echelon basis
        if basis:
            combo = [0] * cols
            for vec in basis:
                w = rng.randrange(-2, 3)
                combo = [c + w * x for c, x in zip(combo, vec)]
            assert intlinalg.mat_vec(a, combo) == [0] * rows


def test_solve_random():
    rng = random.Random(56)
    solved = 0
    for _ in range(120):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            # planted solution: rhs guaranteed feasible
            x = [rng.randrange(-4, 5) for _ in range(cols)]
            b = intlinalg.mat_vec(a, x)
        else:
            b = [rng.randrange(-8, 9) for _ in range(rows)]
        got = _solve(a, b)
        if got is not None:
            assert intlinalg.mat_vec(a, got) == b
            solved += 1
    assert solved > 40


def test_solve_reports_integer_infeasibility():
    # 2x = 1 has a rational solution but no integer one
    assert _solve([[2]], [1]) is None
    assert _solve([[2]], [4]) == [2]
    # inconsistent system
    assert _solve([[1], [1]], [0, 1]) is None


def test_hermite_columns_canonical():
    # two generating sets of the same lattice get the same echelon basis
    b1 = intlinalg.hermite_columns([[2, 0], [1, 3]])
    b2 = intlinalg.hermite_columns([[1, 3], [2, 0]])
    # the generators are column vectors; same lattice, same echelon form
    assert b1 == b2


def test_empty_shapes():
    assert intlinalg.kernel_basis(intlinalg.smith_normal_form([[0, 0]])) \
        == [[1, 0], [0, 1]]
    assert _solve([[0]], [0]) == [0]
    assert _solve([[0]], [1]) is None
