"""Domains: defect system, periodic lattice, connecting domains, admissibility."""
from __future__ import annotations

import pytest

from sfh.builders import build_example
from sfh.diagram import ALPHA, BETA, enumerate_generators
from sfh.domains import (
    Domain,
    NotAdmissibleError,
    admissibility,
    connecting_domain,
    defect_rhs,
    defect_system,
    h2_rank,
    is_admissible,
    periodic_basis,
    positive_connecting_domains,
    require_admissible,
)

from oracles import brute_force_positive_domains, connects


# -- Domain value type --------------------------------------------------------


def test_domain_algebra():
    d = build_example("s1s2", [])
    z = Domain.zero(d)
    assert z.is_zero() and z.is_nonnegative()
    a = Domain.from_dict(d, {1: 2})
    b = Domain.from_dict(d, {1: 1, 2: -1})
    assert (a + b).as_dict() == {1: 3, 2: -1}
    assert (a - b).as_dict() == {1: 1, 2: 1}
    assert (-b).as_dict() == {1: -1, 2: 1}
    assert b.scaled(3).as_dict() == {1: 3, 2: -3}
    assert a != b and a == Domain.from_dict(d, {1: 2})
    assert hash(a) == hash(Domain.from_dict(d, {1: 2}))
    assert a.coeff(1) == 2 and a.coeff(2) == 0
    assert a.coeff(3) == 0  # boundary region: always zero
    with pytest.raises(ValueError):
        a.coeff(99)
    assert b.describe() == "r1:1 r2:-1"
    assert z.describe() == "empty"
    assert repr(b) == "Domain(r1:1 r2:-1)"


def test_domain_rejects_bad_coefficients():
    d = build_example("s1s2", [])
    with pytest.raises(ValueError, match="not interior regions"):
        Domain.from_dict(d, {3: 1})  # region 3 touches the boundary
    with pytest.raises(ValueError, match="does not match"):
        Domain(d, (1,))


def test_curve_multiplicities():
    d = build_example("s1s2", [])
    (b,) = periodic_basis(d)
    assert b.curve_multiplicities() == {(ALPHA, 1): 1, (BETA, 1): -1}
    partial = Domain.from_dict(d, {1: 1})
    with pytest.raises(ValueError, match="not constant along"):
        partial.curve_multiplicities()


# -- defect system ------------------------------------------------------------


def test_defect_system_shape():
    for name, params in [("s1s2", []), ("spheres", [3]), ("torus_lens", [3])]:
        d = build_example(name, params)
        rows, labels = defect_system(d)
        assert len(rows) == len(labels) == 2 * len(d.crossings)
        for row in rows:
            assert len(row) == len(d.interior_regions)
        # alpha and beta conditions at one crossing are negatives of each other
        for i in range(0, len(rows), 2):
            assert rows[i + 1] == [-v for v in rows[i]]


def test_defect_rhs_signs():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    rhs = defect_rhs(d, x, y)
    assert rhs == [-1, 1, 1, -1]  # crossing 1 leaves x, crossing 2 joins y
    assert defect_rhs(d, x, x) == [0, 0, 0, 0]


def test_periodic_basis_is_in_kernel():
    for name, params in [("s1s2", []), ("spheres", [4]), ("annulus_s3_2", [])]:
        d = build_example(name, params)
        rows, _ = defect_system(d)
        for b in periodic_basis(d):
            for row in rows:
                assert sum(r * c for r, c in zip(row, b.coeffs)) == 0


def test_periodic_basis_frozen_values():
    table = {
        ("s1s2", ()): ["r1:1 r2:-1"],
        ("torus_lens", (3,)): [],
        ("annulus_s3_2", ()): ["r1:1 r2:-1"],
        ("spheres", (3,)): ["r1:1 r2:-1", "r4:1 r5:-1"],
        ("lens_knot", (3,)): [],
        ("nontaut", ()): [],
        ("s1s2_disjoint", ()): ["r1:1"],
        ("hexagon", ()): [],
    }
    for (name, params), want in table.items():
        d = build_example(name, list(params))
        assert [b.describe() for b in periodic_basis(d)] == want, name
        assert h2_rank(d) == len(want)


def test_h2_rank_scales_with_spheres():
    for n in range(1, 5):
        assert h2_rank(build_example("spheres", [n])) == n - 1


# -- connecting domains ---------------------------------------------------------


def test_connecting_domain_s1s2():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    assert connecting_domain(d, x, x).is_zero()
    assert connecting_domain(d, y, x).describe() == "r2:1"
    assert connecting_domain(d, x, y).describe() == "r2:-1"


def test_connecting_domain_satisfies_defects():
    for name, params in [("s1s2", []), ("annulus_s3_2", []), ("spheres", [3]),
                         ("lens_knot", [3]), ("hexagon", [])]:
        d = build_example(name, params)
        rows, _ = defect_system(d)
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                dom = connecting_domain(d, x, y)
                if dom is None:
                    continue
                rhs = defect_rhs(d, x, y)
                for row, want in zip(rows, rhs):
                    assert sum(r * c for r, c in zip(row, dom.coeffs)) == want
                assert connects(d, dom.as_dict(), x, y)


def test_connecting_domain_canonical_on_cosets():
    # shifting by any periodic domain must not change the canonical choice
    d = build_example("spheres", [3])
    gens = enumerate_generators(d)
    basis = periodic_basis(d)
    for x in gens:
        for y in gens:
            dom = connecting_domain(d, x, y)
            assert dom is not None  # all sphere generators are connected
            # recompute from a reversed path: D(x,y) + D(y,x) is periodic
            back = connecting_domain(d, y, x)
            total = dom + back
            rows, _ = defect_system(d)
            for row in rows:
                assert sum(r * c for r, c in zip(row, total.coeffs)) == 0


def test_connecting_domain_none_across_classes():
    d = build_example("torus_lens", [3])
    gens = enumerate_generators(d)
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            dom = connecting_domain(d, x, y)
            assert (dom is None) == (i != j)
            if i == j:
                assert dom.is_zero()


def test_connecting_domain_rejects_bad_generators():
    d = build_example("s1s2", [])
    with pytest.raises(ValueError, match="non-crossing"):
        connecting_domain(d, (3,), (1,))


# -- admissibility ---------------------------------------------------------------


def test_corpus_admissibility():
    admissible = ["product", "torus_lens", "s1s2", "annulus_s3_2", "spheres",
                  "lens_knot", "nontaut", "hexagon"]
    for name in admissible:
        d = build_example(name, [2, 2] if name == "product" else
                          [3] if name in ("torus_lens", "spheres", "lens_knot")
                          else [])
        ok, witness = admissibility(d)
        assert ok and witness is None, name
        assert is_admissible(d)
        require_admissible(d)  # must not raise


def test_inadmissible_witness():
    d = build_example("s1s2_disjoint", [])
    ok, witness = admissibility(d)
    assert not ok
    assert witness.describe() == "r1:1"
    assert witness.is_nonnegative() and not witness.is_zero()
    # the witness really is periodic
    rows, _ = defect_system(d)
    for row in rows:
        assert sum(r * c for r, c in zip(row, witness.coeffs)) == 0
    with pytest.raises(NotAdmissibleError, match="positive periodic domain"):
        require_admissible(d)
    try:
        require_admissible(d)
    except NotAdmissibleError as e:
        assert e.witness == witness


# -- positive connecting domains ---------------------------------------------


def test_positive_domains_s1s2():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    assert positive_connecting_domains(d, x, y) == []
    got = {dom.describe() for dom in positive_connecting_domains(d, y, x)}
    assert got == {"r1:1", "r2:1"}  # the two bigon classes
    assert [dom.describe() for dom in positive_connecting_domains(d, x, x)] \
        == ["empty"]


def test_positive_domains_maslov_filter():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    one = positive_connecting_domains(d, y, x, maslov=1)
    assert {dom.describe() for dom in one} == {"r1:1", "r2:1"}
    assert positive_connecting_domains(d, y, x, maslov=2) == []
    assert positive_connecting_domains(d, x, x, maslov=0) \
        == [Domain.zero(d)]


def test_positive_domains_match_brute_force():
    for name, params in [("s1s2", []), ("annulus_s3_2", []),
                         ("torus_lens", [3]), ("lens_knot", [3]),
                         ("hexagon", []), ("spheres", [3])]:
        d = build_example(name, params)
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                got = sorted(dom.coeffs
                             for dom in positive_connecting_domains(d, x, y))
                want = brute_force_positive_domains(d, x, y, cap=4)
                assert got == want, (name, x, y)


def test_positive_domains_require_admissible():
    d = build_example("s1s2_disjoint", [])
    with pytest.raises(NotAdmissibleError):
        positive_connecting_domains(d, (), ())


def test_positive_domains_on_grid_fixture(grid2):
    x, y = enumerate_generators(grid2)
    assert {dom.describe()
            for dom in positive_connecting_domains(grid2, x, y)} \
        == {"r1:1", "r2:1"}
    assert positive_connecting_domains(grid2, y, x) == []
