"""Generator classes, index computation, relative gradings, pairing invariant."""
from __future__ import annotations

import itertools

import pytest

from sfh.builders import build_example
from sfh.diagram import enumerate_generators
from sfh.domains import Domain, connecting_domain, periodic_basis
from sfh.spinc import (
    grading_modulus,
    maslov_index,
    point_measure,
    relative_gradings,
    spinc_partition,
)

from oracles import epsilon_class, epsilon_group


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


def test_partition_respects_explicit_generator_list():
    d = build_example("torus_lens", [3])
    whole = spinc_partition(d)
    sub = spinc_partition(d, generators=[(3,), (1,)])
    assert [c.members for c in sub] == [((1,),), ((3,),)]
    assert len(whole) == 3


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
    b1 = Domain.from_dict(d, {1: 1})
    b2 = Domain.from_dict(d, {2: 1})
    assert maslov_index(d, b1, y, x) == 1
    assert maslov_index(d, b2, y, x) == 1
    # difference of the two bigons is periodic with index zero
    assert maslov_index(d, b1 - b2, x, x) == 0
    assert maslov_index(d, b1 - b2, y, y) == 0


def test_maslov_rejects_non_connecting():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    assert maslov_index(d, Domain.zero(d), x, y) is None
    assert maslov_index(d, Domain.from_dict(d, {1: 1}), x, y) is None
    assert maslov_index(d, Domain.from_dict(d, {1: 2}), y, x) is None


def test_maslov_zero_domain():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    assert maslov_index(d, Domain.zero(d), x, x) == 0
    assert maslov_index(d, Domain.zero(d), y, y) == 0


def test_maslov_additive_over_composition():
    for name, params in [("s1s2", []), ("spheres", [3]), ("annulus_s3_2", [])]:
        d = build_example(name, params)
        gens = enumerate_generators(d)
        for x, y, z in itertools.product(gens, repeat=3):
            d1 = connecting_domain(d, x, y)
            d2 = connecting_domain(d, y, z)
            if d1 is None or d2 is None:
                continue
            total = maslov_index(d, d1 + d2, x, z)
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
    b1 = Domain.from_dict(d, {1: 1})
    # the bigon has one corner at each crossing
    from fractions import Fraction
    assert point_measure(d, b1, 1) == Fraction(1, 4)
    assert point_measure(d, b1, 2) == Fraction(1, 4)


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
        got = [relative_gradings(d, c.members) for c in spinc_partition(d)]
        assert got == want, name


def test_relative_gradings_reject_cross_class():
    d = build_example("torus_lens", [3])
    with pytest.raises(ValueError, match="not in the same class"):
        relative_gradings(d, ((1,), (2,)))


def test_grading_difference_is_maslov():
    d = build_example("spheres", [4])
    for c in spinc_partition(d):
        grades = relative_gradings(d, c.members)
        for x, y in itertools.permutations(c.members, 2):
            dom = connecting_domain(d, x, y)
            assert grades[x] - grades[y] == maslov_index(d, dom, x, y)


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
