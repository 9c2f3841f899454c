"""Randomized checks of the exact integer linear algebra kernel."""
from __future__ import annotations

import math
import random
import signal

from sfh import intlinalg
from sfh.builders import build_example
from sfh.moves import permute_ids

from oracles import (dense_hermite_factorization, dense_smith_normal_form,
                     mat_mul, mat_vec, reduced_columns, solve)


def _factor(a, n):
    """hermite_factorization of the m x n matrix given as dense rows a,
    handed over as its sparse columns."""
    return intlinalg.hermite_factorization(
        [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(n)])


def _dense(a, pivots, kernel, n):
    """u and h of a Hermite factorization of a, made dense: the pivot
    columns first, in row order, then the kernel columns."""
    ucols = [u for *_, u in pivots] + kernel
    u = [[c.get(i, 0) for c in ucols] for i in range(n)]
    hcols = [dict(terms) for _, _, terms, _ in pivots] + [{}] * len(kernel)
    h = [[c.get(i, 0) for c in hcols] for i in range(len(a))]
    return u, h


def _residue(pivots, b):
    """(residue, coefficients) of b, reduced as a class key is."""
    res = list(b)
    coeffs = intlinalg.hermite_reduce(pivots, res)
    return tuple(res), coeffs


def _combine(pivots, coeffs, n):
    # u c for the coefficients c of _residue
    x = [0] * n
    for k, q in coeffs:
        for j, v in pivots[k][3].items():
            x[j] += q * v
    return x


def _solve(a, b, n):
    """One integer solution x of a x = b, or None, from the Hermite
    factorization: b must reduce to residue 0, and u c solves it."""
    pivots, _ = _factor(a, n)
    res, coeffs = _residue(pivots, b)
    return None if any(res) else _combine(pivots, coeffs, n)


def _smith_solve(a, b):
    snf = dense_smith_normal_form(a)
    return solve(snf, mat_vec(snf[0], b))


def _smith_kernel(snf, n):
    """The kernel lattice's reduced echelon basis, from a Smith form."""
    _, s, v = snf
    r = sum(1 for i in range(min(len(s), n)) if s[i][i])
    return intlinalg.hermite_columns([row[j] for row in v] for j in range(r, n))


def _hermite_kernel(kernel, n):
    return intlinalg.hermite_columns([c.get(j, 0) for j in range(n)]
                                     for c in kernel)


def _smith_key(snf, b):
    # u b reduced modulo the diagonal entries other than 1 (exact where 0)
    u, s, v = snf
    ub = mat_vec(u, b)
    diag = [s[i][i] if i < len(v) else 0 for i in range(len(s))]
    return tuple(t % e if e else t for t, e in zip(ub, diag) if e != 1)


def _partition(keys):
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, set()).add(i)
    return sorted(map(sorted, groups.values()))


def _assert_factorization(a, n, bound):
    """a u = h, u unimodular, h in column echelon form with positive
    pivots, and no entry of u or h above bound in magnitude (if given);
    the pivots and kernel columns are those of the dense-row factorization.
    Returns the factorization's pivots and kernel columns."""
    pivots, kernel = _factor(a, n)
    assert (pivots, kernel) == dense_hermite_factorization(a, n)
    u, h = _dense(a, pivots, kernel, n)
    assert mat_mul(a, u) == h
    assert n == 0 or abs(_det(u)) == 1
    rows = [r for r, *_ in pivots]
    assert rows == sorted(set(rows))
    for k, (r, e, terms, _) in enumerate(pivots):
        assert e > 0 and h[r][k] == e
        assert all(h[i][k] == 0 for i in range(r))
    assert all(not any(row[len(pivots):]) for row in h)
    if bound is not None:
        assert max((abs(x) for m in (u, h) for row in m for x in row),
                   default=0) <= bound
    return pivots, kernel


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
        u, s, v = dense_smith_normal_form(a)
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
    # this relabeling's 40 x 19 defect matrix once made a Smith form whose
    # pivots were chosen once per diagonal position grow its trailing block
    # past 4,000 digits; the Hermite factorization that replaced it is held
    # to small entries on it, and the alarm turns a blow-up into a failure
    # instead of a hang
    d = permute_ids(build_example("torus_lens", (20,)), 1250219996)
    a, n = d.defects.rows, len(d.interior_regions)

    def too_slow(signum, frame):
        raise TimeoutError("hermite_factorization ran for over 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        _factor(a, n)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pivots, kernel = _assert_factorization(a, n, 1000)
    # full column rank, and the pivots multiply to the product of the
    # Smith diagonal, [1] * 18 + [20]
    assert (len(pivots), len(kernel)) == (19, 0)
    assert math.prod(e for _, e, _, _ in pivots) == 20


def test_hermite_entries_stay_small_under_relabeling():
    # entry growth is the known risk of Hermite forms; on 600 relabelings
    # of the lens and sphere families the largest entry of u or h seen is
    # 168
    biggest = 0
    for name, p in (("torus_lens", 16), ("torus_lens", 20), ("lens_knot", 20),
                    ("spheres", 5)):
        d0 = build_example(name, (p,))
        for seed in range(150):
            d = permute_ids(d0, seed)
            pivots, kernel = _factor(d.defects.rows,
                                     len(d.interior_regions))
            biggest = max(biggest, *(abs(x) for _, _, terms, _ in pivots
                                     for _, x in terms),
                          *(abs(x) for *_, u in pivots for x in u.values()),
                          *(abs(x) for u in kernel for x in u.values()))
    assert biggest <= 1000


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


def test_hermite_matches_dense_smith_on_random_matrices():
    # small entries of both signs with 2, 3, 4 and 6 give non-unit
    # pivots; the kernel lattices agree, and right-hand sides, half of them a
    # shared base plus a planted image, share a Hermite residue exactly
    # when they share a Smith key
    rng = random.Random(78)
    entries = (1, 2, 3, 4, 6, -1, -2, -3, -4, -6)
    non_unit = shared = 0
    for _ in range(2000):
        rows, cols = rng.randint(1, 10), rng.randint(1, 8)
        density = rng.uniform(0.1, 1)
        a = [[rng.choice(entries) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        pivots, kernel = _assert_factorization(a, cols, None)
        snf = dense_smith_normal_form(a)
        assert _hermite_kernel(kernel, cols) == _smith_kernel(snf, cols), a
        non_unit += any(e > 1 for _, e, _, _ in pivots)
        base = [rng.randrange(-3, 4) for _ in range(rows)]
        rhs = [[rng.randrange(-3, 4) for _ in range(rows)] for _ in range(4)]
        for _ in range(4):
            x = [rng.randrange(-2, 3) for _ in range(cols)]
            rhs.append([b + y for b, y in zip(base, mat_vec(a, x))])
        reduced = [_residue(pivots, b) for b in rhs]
        ours = [res for res, _ in reduced]
        assert _partition(ours) == _partition(
            [_smith_key(snf, b) for b in rhs]), a
        shared += len(set(ours)) < len(ours)
        # b = h c + residue, so a (u c) = b - residue
        for b, (res, coeffs) in zip(rhs, reduced):
            assert mat_vec(a, _combine(pivots, coeffs, cols)) == \
                [p - q for p, q in zip(b, res)]
    assert non_unit > 100 and shared > 1000


def test_hermite_matches_dense_smith_on_defect_matrices():
    count = 0
    for d in setup_diagrams():
        a, n = d.defects.rows, len(d.interior_regions)
        _, kernel = _assert_factorization(a, n, 1000)
        snf = dense_smith_normal_form(a or [[0] * n])
        basis = [list(b) for b in d.defects.periodic]
        assert basis == _hermite_kernel(kernel, n) == _smith_kernel(snf, n), \
            d.name
        count += 1
    assert count == 138


def test_kernel_random():
    rng = random.Random(34)
    for _ in range(80):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        basis = _hermite_kernel(_factor(a, cols)[1],
                                cols)
        for vec in basis:
            assert mat_vec(a, vec) == [0] * rows
        # rank-nullity over Q
        u, s, v = dense_smith_normal_form(a)
        rank = sum(1 for i in range(min(rows, cols)) if s[i][i])
        assert len(basis) == cols - rank
        # kernel membership is detected: every small kernel vector reduces
        # to zero against the echelon basis
        if basis:
            combo = [0] * cols
            for vec in basis:
                w = rng.randrange(-2, 3)
                combo = [c + w * x for c, x in zip(combo, vec)]
            assert mat_vec(a, combo) == [0] * rows


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
            b = mat_vec(a, x)
        else:
            b = [rng.randrange(-8, 9) for _ in range(rows)]
        got = _solve(a, b, cols)
        assert (got is None) == (_smith_solve(a, b) is None), (a, b)
        if got is not None:
            assert mat_vec(a, got) == b
            solved += 1
    assert solved > 40


def test_solve_reports_integer_infeasibility():
    # 2x = 1 has a rational solution but no integer one
    for sol in (lambda a, b: _solve(a, b, len(a[0])), _smith_solve):
        assert sol([[2]], [1]) is None
        assert sol([[2]], [4]) == [2]
        # inconsistent system
        assert sol([[1], [1]], [0, 1]) is None


def test_hermite_columns_canonical():
    # two generating sets of the same lattice get the same echelon basis
    b1 = intlinalg.hermite_columns([[2, 0], [1, 3]])
    b2 = intlinalg.hermite_columns([[1, 3], [2, 0]])
    # the generators are column vectors; same lattice, same echelon form
    assert b1 == b2
    # both span Z^2: the entry of the first column at the second lead is
    # reduced into [0, 1)
    assert intlinalg.hermite_columns([[1, 1], [0, 1]]) == [[1, 0], [0, 1]]
    assert intlinalg.hermite_columns([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_hermite_columns_match_the_dense_echelon_loop():
    # random generating sets, among them dependent ones, zero vectors and
    # more vectors than rows, then the kernels of the defect matrices; the
    # form read off the factorization is the oracle's, and shuffling the
    # generators or adding one to another leaves it unchanged
    rng = random.Random(27)
    kinds = set()
    for _ in range(1500):
        n, k = rng.randint(1, 6), rng.randint(0, 9)
        vecs = []
        for _ in range(k):
            roll = rng.random()
            if roll < 0.15:
                vecs.append([0] * n)
            elif roll < 0.35 and vecs:
                a, b = rng.choice(vecs), rng.choice(vecs)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                vecs.append([s * x + t * y for x, y in zip(a, b)])
            else:
                vecs.append([rng.choice((0, 0, 1, -1, 2, -3, 4, 6))
                             for _ in range(n)])
        got = intlinalg.hermite_columns(vecs)
        assert got == reduced_columns(vecs), vecs
        kinds.add(("dependent", len(got) < k))
        kinds.add(("zero", [0] * n in vecs))
        kinds.add(("wide", k > n))
        if len(vecs) > 1:
            moved = vecs[:]
            rng.shuffle(moved)
            moved[0] = [x + y for x, y in zip(moved[0], moved[1])]
            assert intlinalg.hermite_columns(moved) == got, vecs
    assert kinds >= {("dependent", True), ("zero", True), ("wide", True)}
    kernels = 0
    for d in setup_diagrams():
        n = len(d.interior_regions)
        kernel = [[u.get(j, 0) for j in range(n)] for u in
                  _factor(d.defects.rows, n)[1]]
        assert intlinalg.hermite_columns(kernel) == reduced_columns(kernel), \
            d.name
        kernels += 1
    assert kernels == 138


def test_empty_shapes():
    assert _factor([[0, 0]], 2) == _factor([], 2) == \
        intlinalg.hermite_factorization([{}, {}]) == ([], [{0: 1}, {1: 1}])
    assert intlinalg.hermite_factorization([]) == ([], [])
    assert _solve([[0]], [0], 1) == [0]
    assert _solve([[0]], [1], 1) is None
