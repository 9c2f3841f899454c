"""Generator classes, index computation, relative gradings, pairing invariant."""
from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from operator import add
from pathlib import Path

import pytest

import sfh
from sfh.builders import build_example
from sfh.diagram import enumerate_generators
from sfh.domains import Domain, connecting_domain, periodic_basis
from sfh.spinc import grading_modulus, relative_gradings, spinc_partition

from oracles import epsilon_class, epsilon_group, maslov_index


# -- partition into classes -----------------------------------------------------


def test_partition_frozen():
    table = {
        ("torus_lens", (3,)): [((1,),), ((2,),), ((3,),)],
        ("s1s2", ()): [((1,), (2,))],
        ("annulus_s3_2", ()): [((1,), (2,))],
        ("spheres", (3,)): [((1, 3), (1, 4), (2, 3), (2, 4))],
        ("lens_knot", (3,)): [((1,),), ((2,),), ((3,),)],
        ("hexagon", ()): [((1,),), ((2,),), ((3,),), ((4,),)],
        ("nontaut", ()): [],
    }
    for (name, params), want in table.items():
        d = build_example(name, list(params))
        classes = spinc_partition(d)
        assert [c.members for c in classes] == want, name
        assert [c.id for c in classes] == [f"s{i}" for i in range(len(want))]


def test_partition_is_connectivity():
    # same class <=> a connecting domain exists, in both directions
    for name, params in [("s1s2", []), ("spheres", [3]), ("torus_lens", [2]),
                         ("lens_knot", [3]), ("hexagon", [])]:
        d = build_example(name, params)
        classes = spinc_partition(d)
        cls_of = {g: c.id for c in classes for g in c.members}
        for x in enumerate_generators(d):
            for y in enumerate_generators(d):
                linked = connecting_domain(d, x, y) is not None
                assert linked == (cls_of[x] == cls_of[y])


# -- Maslov index ---------------------------------------------------------------


def test_maslov_bigons():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    b1 = Domain(d, (1, 0))
    b2 = Domain(d, (0, 1))
    assert maslov_index(d, b1, y, x) == 1
    assert maslov_index(d, b2, y, x) == 1
    # difference of the two bigons is periodic with index zero
    assert maslov_index(d, Domain(d, (1, -1)), x, x) == 0
    assert maslov_index(d, Domain(d, (1, -1)), y, y) == 0


def test_maslov_rejects_non_connecting():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    assert maslov_index(d, Domain(d, (0, 0)), x, y) is None
    assert maslov_index(d, Domain(d, (1, 0)), x, y) is None
    assert maslov_index(d, Domain(d, (2, 0)), y, x) is None


def test_maslov_zero_domain():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    assert maslov_index(d, Domain(d, (0, 0)), x, x) == 0
    assert maslov_index(d, Domain(d, (0, 0)), y, y) == 0


def test_maslov_additive_over_composition():
    for name, params in [("s1s2", []), ("spheres", [3]), ("annulus_s3_2", [])]:
        d = build_example(name, params)
        gens = enumerate_generators(d)
        for x, y, z in itertools.product(gens, repeat=3):
            d1 = connecting_domain(d, x, y)
            d2 = connecting_domain(d, y, z)
            if d1 is None or d2 is None:
                continue
            total = maslov_index(d, Domain(d, map(add, d1.coeffs, d2.coeffs)),
                                 x, z)
            assert total == maslov_index(d, d1, x, y) + maslov_index(d, d2, y, z)


def test_maslov_spheres_values():
    d = build_example("spheres", [3])
    gens = enumerate_generators(d)
    # grading differences match the frozen ladder 0,1,1,2
    ladder = {(1, 3): 0, (1, 4): 1, (2, 3): 1, (2, 4): 2}
    for x, y in itertools.permutations(gens, 2):
        dom = connecting_domain(d, x, y)
        assert maslov_index(d, dom, x, y) == ladder[x] - ladder[y]


def test_point_measure_quarters():
    d = build_example("s1s2", [])
    # each bigon: 4 * (Euler characteristic 1) minus its 2 corners
    assert d.interior_regions == [1, 2] and d.defects.euler == [2, 2]
    # each crossing has one interior corner in each bigon
    assert {v: sorted(cols) for v, cols in d.defects.quads.items()} \
        == {1: [0, 1], 2: [0, 1]}
    x, y = enumerate_generators(d)
    assert maslov_index(d, Domain(d, (1, 0)), y, x) == 1


# -- modulus and relative gradings ------------------------------------------------


def test_grading_modulus_zero_on_corpus():
    # every example class has exact integer gradings
    for name, params in [("s1s2", []), ("torus_lens", [3]), ("spheres", [4]),
                         ("annulus_s3_2", []), ("lens_knot", [3]),
                         ("hexagon", [])]:
        d = build_example(name, params)
        for c in spinc_partition(d):
            assert grading_modulus(d, min(c.members)) == 0


def test_relative_gradings_frozen():
    cases = {
        ("s1s2", ()): [{(1,): 0, (2,): 1}],
        ("annulus_s3_2", ()): [{(1,): 0, (2,): 1}],
        ("spheres", (3,)): [{(1, 3): 0, (1, 4): 1, (2, 3): 1, (2, 4): 2}],
        ("torus_lens", (3,)): [{(1,): 0}, {(2,): 0}, {(3,): 0}],
    }
    for (name, params), want in cases.items():
        d = build_example(name, list(params))
        got = [relative_gradings(d, c.members, grading_modulus(d, min(c.members)))
               for c in spinc_partition(d)]
        assert got == want, name


def test_relative_gradings_reject_cross_class():
    d = build_example("torus_lens", [3])
    with pytest.raises(ValueError, match="not in the same class"):
        relative_gradings(d, ((1,), (2,)), 0)


def test_grading_difference_is_maslov():
    d = build_example("spheres", [4])
    for c in spinc_partition(d):
        grades = relative_gradings(d, c.members, grading_modulus(d, min(c.members)))
        for x, y in itertools.permutations(c.members, 2):
            dom = connecting_domain(d, x, y)
            assert grades[x] - grades[y] == maslov_index(d, dom, x, y)


def test_nonzero_modulus_reduces_gradings():
    # no buildable class has a nonzero modulus, so raise the Euler weight of
    # one region that a periodic domain covers by a multiple of 4: indices
    # stay integers, that periodic domain gets a nonzero index, and the
    # gradings reduce modulo the gcd
    for name, params, bump, modulus, gradings in [
            ("s1s2", [], 8, 2, {(1,): 0, (2,): 1}),
            ("spheres", [3], 12, 3,
             {(1, 3): 0, (1, 4): 1, (2, 3): 1, (2, 4): 2})]:
        d = build_example(name, params)
        basis = periodic_basis(d)
        assert basis[0].coeffs[1]
        d.defects.euler[1] += bump
        (c,) = spinc_partition(d)
        least = min(c.members)
        for m in c.members:
            assert grading_modulus(d, m) == math.gcd(
                *(maslov_index(d, p, m, m) for p in basis)) == modulus
        got = relative_gradings(d, c.members, modulus)
        raw = {g: maslov_index(d, connecting_domain(d, g, least), g, least)
               for g in c.members}
        assert got == {g: v % modulus for g, v in raw.items()} == gradings
        assert raw != got, name  # the reduction is exercised


_ODD_WEIGHT = """
from sfh.builders import build_example
from sfh.diagram import enumerate_generators
from sfh.homology import sfh
from sfh.spinc import (_index, grading_modulus, index_weights,
                       relative_gradings)


def planted():
    d = build_example("s1s2")
    d.defects.euler[1] += 1  # an odd weight on r2, the second bigon
    return d


x, y = enumerate_generators(planted())
print("debug", __debug__)
for check in (lambda d: _index(index_weights(d, y, x), (0, 1)),
              lambda d: grading_modulus(d, x),
              lambda d: relative_gradings(d, (x, y), 0),
              sfh):
    try:
        print("returned", check(planted()))
    except RuntimeError as e:
        print("raised", e)
"""


def test_fractional_index_raises_also_under_optimize(capsys):
    # a broken weight must not give a wrong grading, and python -O strips
    # asserts, so the quarter-index check raises
    exec(_ODD_WEIGHT, {})
    inline = capsys.readouterr().out.splitlines()
    env = dict(os.environ, PYTHONPATH=str(Path(sfh.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _ODD_WEIGHT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    optimized = proc.stdout.splitlines()
    assert optimized[0] == "debug False" and len(optimized) == 5
    assert inline[1:] == optimized[1:]
    for line in optimized[1:]:
        assert line.startswith("raised fractional index "), line


# -- pairing invariant ---------------------------------------------------------


def test_epsilon_torus_lens():
    d = build_example("torus_lens", [3])
    assert epsilon_group(d) == (3,)
    gens = enumerate_generators(d)
    for i, x in enumerate(gens, start=1):
        for j, y in enumerate(gens, start=1):
            assert epsilon_class(d, x, y) == ((j - i) % 3,)


def test_epsilon_zero_iff_connected():
    for name, params in [("s1s2", []), ("torus_lens", [3]), ("spheres", [3]),
                         ("lens_knot", [3]), ("annulus_s3_2", []),
                         ("hexagon", [])]:
        d = build_example(name, params)
        gens = enumerate_generators(d)
        zero = None
        for x in gens:
            zero = epsilon_class(d, x, x)
            assert not any(zero)
        for x, y in itertools.permutations(gens, 2):
            linked = connecting_domain(d, x, y) is not None
            assert (epsilon_class(d, x, y) == zero) == linked


def test_epsilon_additive():
    for name, params in [("torus_lens", [3]), ("spheres", [3]), ("hexagon", [])]:
        d = build_example(name, params)
        gens = enumerate_generators(d)
        table = {}
        for x, y in itertools.product(gens, repeat=2):
            table[(x, y)] = epsilon_class(d, x, y)
        factors = list(epsilon_group(d))
        for x, y, z in itertools.product(gens, repeat=3):
            lhs = table[(x, z)]
            combo = tuple(a + b for a, b in zip(table[(x, y)], table[(y, z)]))
            reduced = tuple(v % f if f else v for v, f in zip(combo, factors))
            assert lhs == reduced


def test_epsilon_classes_are_partition():
    for name, params in [("torus_lens", [4]), ("spheres", [3]), ("hexagon", [])]:
        d = build_example(name, params)
        gens = enumerate_generators(d)
        if not gens:
            continue
        base = gens[0]
        by_eps = {}
        for g in gens:
            by_eps.setdefault(epsilon_class(d, base, g), set()).add(g)
        classes = {frozenset(c.members) for c in spinc_partition(d)}
        assert {frozenset(v) for v in by_eps.values()} == classes


def test_epsilon_rejects_mismatched_circles():
    d = build_example("spheres", [3])
    # crossings 1 and 2 sit on the same alpha circle
    with pytest.raises(ValueError, match="same circles"):
        epsilon_class(d, (1, 3), (1, 2))
