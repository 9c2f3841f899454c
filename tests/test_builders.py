"""Builder registry: every example validates with frozen shape invariants."""
from __future__ import annotations

import pytest

from sfh import shd
from sfh.builders import BUILDERS, build_example
from sfh.diagram import balance_report, enumerate_generators

# (builder, params) -> (euler characteristic, #generators)
SHAPES = {
    ("product", (0, 1)): (1, 1),
    ("product", (0, 3)): (-1, 1),
    ("product", (1, 1)): (-1, 1),
    ("product", (2, 2)): (-4, 1),
    ("torus_lens", (1,)): (-1, 1),
    ("torus_lens", (2,)): (-1, 2),
    ("torus_lens", (3,)): (-1, 3),
    ("torus_lens", (4,)): (-1, 4),
    ("s1s2", ()): (-1, 2),
    ("s1s2_disjoint", ()): (-1, 0),
    ("annulus_s3_2", ()): (0, 2),
    ("spheres", (1,)): (1, 1),
    ("spheres", (2,)): (0, 2),
    ("spheres", (3,)): (-1, 4),
    ("spheres", (4,)): (-2, 8),
    ("lens_knot", (1,)): (-2, 1),
    ("lens_knot", (2,)): (-2, 2),
    ("lens_knot", (3,)): (-2, 3),
    ("lens_knot", (4,)): (-2, 4),
    ("nontaut", ()): (-2, 0),
    ("hexagon", ()): (-3, 4),
}


@pytest.mark.parametrize("key", sorted(SHAPES))
def test_builder_shape(key):
    name, params = key
    chi, gens = SHAPES[key]
    d = build_example(name, list(params))
    d.validate()
    assert d.euler_characteristic() == chi
    assert len(enumerate_generators(d)) == gens
    assert balance_report(d) == []
    assert d.alpha_count == d.beta_count


@pytest.mark.parametrize("key", sorted(SHAPES))
def test_builder_round_trip(key):
    name, params = key
    d = build_example(name, list(params))
    d2 = shd.parse(shd.serialize(d))
    d2.validate()
    assert shd.digest(d2) == shd.digest(d)


def test_registry_metadata():
    assert set(BUILDERS) == {
        "product", "torus_lens", "s1s2", "s1s2_disjoint", "annulus_s3_2",
        "spheres", "lens_knot", "nontaut", "hexagon",
    }
    for name, spec in BUILDERS.items():
        assert spec.summary
        d = build_example(name, list(spec.defaults))
        assert d.validation_errors() == []


def test_build_example_rejects_bad_input():
    with pytest.raises(ValueError):
        build_example("no_such_example", [])
    with pytest.raises(ValueError):
        build_example("s1s2", [1])  # takes no parameters
    with pytest.raises(ValueError):
        build_example("torus_lens", [1, 2])
    with pytest.raises(ValueError):
        build_example("torus_lens", [0])  # slope must be positive
    with pytest.raises(ValueError):
        build_example("spheres", [0])
    with pytest.raises(ValueError):
        build_example("product", [-1, 1])
    with pytest.raises(ValueError):
        build_example("product", [0, 0])  # needs at least one suture


def test_product_names_and_scaling():
    for g, b in [(0, 1), (0, 2), (1, 3), (3, 1)]:
        d = build_example("product", [g, b])
        assert d.name == f"product({g},{b})"
        assert d.euler_characteristic() == 2 - 2 * g - b
        assert len(d.regions) == 1
        assert enumerate_generators(d) == [()]
