"""Domains: defect system, periodic lattice, connecting domains, admissibility."""
from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sfh
from sfh import homology, intlinalg, ratlp
from sfh.builders import BUILDERS, build_example
from sfh.diagram import ALPHA, BETA, enumerate_generators
from sfh.domains import (
    DefectSystem,
    Domain,
    NotAdmissibleError,
    admissibility,
    connecting_domain,
    h2_rank,
    periodic_basis,
    positive_connecting_domains,
    require_admissible,
)
from sfh.moves import disjoint_union, insert_marker, permute_ids, stabilize
from sfh.shd import parse, serialize
from sfh.spinc import (grading_modulus, index_weights, relative_gradings,
                       spinc_partition)

from oracles import (admissibility_program, box_walk,
                     brute_force_positive_domains,
                     connects, coset_bases, curve_multiplicities, defect_rhs,
                     dense_potential, maslov_index, per_crossing_curves,
                     normalized, per_crossing_defect_system,
                     per_pair_connecting_domain, reference_walk)
from test_homology import _count_calls, _nice_variants, _walk_variants
from test_intlinalg import setup_diagrams


# -- Domain value type --------------------------------------------------------


def test_domain_algebra():
    d = build_example("s1s2", [])
    z = Domain(d, (0, 0))
    a = Domain(d, (2, 0))
    b = Domain(d, (1, -1))
    assert a != b and a == Domain(d, (2, 0))
    assert hash(a) == hash(Domain(d, (2, 0)))
    assert a.coeff(1) == 2 and a.coeff(2) == 0
    assert a.coeff(3) == 0  # boundary region: always zero
    with pytest.raises(ValueError):
        a.coeff(99)
    assert b.describe() == "r1:1 r2:-1"
    assert z.describe() == "empty"
    assert repr(b) == "Domain(r1:1 r2:-1)"


def test_domain_rejects_bad_coefficients():
    d = build_example("s1s2", [])
    with pytest.raises(ValueError, match="does not match"):
        Domain(d, (1,))


def test_curve_multiplicities():
    d = build_example("s1s2", [])
    (b,) = periodic_basis(d)
    assert curve_multiplicities(b) == {(ALPHA, 1): 1, (BETA, 1): -1}
    partial = Domain(d, (1, 0))
    with pytest.raises(ValueError, match="not constant along"):
        curve_multiplicities(partial)


# -- defect system ------------------------------------------------------------


def test_defect_system_shape():
    for name, params in [("s1s2", []), ("spheres", [3]), ("torus_lens", [3])]:
        d = build_example(name, params)
        rows, labels = per_crossing_defect_system(d)
        assert len(rows) == len(labels) == 2 * len(d.crossings)
        for row in rows:
            assert len(row) == len(d.interior_regions)
        # alpha and beta conditions at one crossing are negatives of each other
        for i in range(0, len(rows), 2):
            assert rows[i + 1] == [-v for v in rows[i]]


def test_one_pass_tables_match_per_crossing_scans():
    loops = 0
    for d in setup_diagrams():
        ds = d.defects
        rows, labels = per_crossing_defect_system(d)
        assert ds.labels == labels, d.name
        assert ds.columns == [{i: row[j] for i, row in enumerate(rows)
                               if row[j]}
                              for j in range(len(d.interior_regions))], d.name
        assert d.crossing_curves == per_crossing_curves(d), d.name
        loops += any(e.tail == e.head and e.tail in d.crossing_curves
                     for e in d.edges.values())
    # torus_lens(1) and lens_knot(1) carry edges from a crossing to itself
    assert loops >= 3


def test_defect_rhs_signs():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    rhs = defect_rhs(d, x, y)
    assert rhs == [-1, 1, 1, -1]  # crossing 1 leaves x, crossing 2 joins y
    assert defect_rhs(d, x, x) == [0, 0, 0, 0]


def test_periodic_basis_is_in_kernel():
    for name, params in [("s1s2", []), ("spheres", [4]), ("annulus_s3_2", [])]:
        d = build_example(name, params)
        rows, _ = per_crossing_defect_system(d)
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
    assert not any(connecting_domain(d, x, x).coeffs)
    assert connecting_domain(d, y, x).describe() == "r2:1"
    assert connecting_domain(d, x, y).describe() == "r2:-1"


def test_connecting_domain_satisfies_defects():
    for name, params in [("s1s2", []), ("annulus_s3_2", []), ("spheres", [3]),
                         ("lens_knot", [3]), ("hexagon", [])]:
        d = build_example(name, params)
        rows, _ = per_crossing_defect_system(d)
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
            total = [a + b for a, b in zip(dom.coeffs, back.coeffs)]
            rows, _ = per_crossing_defect_system(d)
            for row in rows:
                assert sum(r * c for r, c in zip(row, total)) == 0


def test_connecting_domain_none_across_classes():
    d = build_example("torus_lens", [3])
    gens = enumerate_generators(d)
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            dom = connecting_domain(d, x, y)
            assert (dom is None) == (i != j)
            if i == j:
                assert not any(dom.coeffs)


def test_potentials_reduce_at_non_unit_pivots():
    # a pivot other than 1 leaves a residue that need not be 0 in its row,
    # and relabeled lens diagrams have such pivots: their keys must still
    # tell the p singleton classes apart, and a union with spheres(3) adds
    # classes of four whose domains come from the reduction's coefficients.
    # (Classes whose members differ by a multiple of a non-unit pivot's
    # column occur in test_intlinalg's random matrices, not here.)
    diagrams = [permute_ids(build_example("torus_lens", [p]), seed)
                for p in range(12, 21) for seed in (1, 1250219996)]
    diagrams += [permute_ids(disjoint_union(build_example("torus_lens", [12]),
                                            build_example("spheres", [3])), 3)]
    checked = connected = 0
    for d in diagrams:
        if all(e == 1 for _, e, _, _ in d.defects.hermite[0]):
            continue
        gens = enumerate_generators(d)
        for x, y in itertools.product(gens, repeat=2):
            want = per_pair_connecting_domain(d, x, y)
            assert connecting_domain(d, x, y) == want, (d.name, x, y)
            connected += want is not None and any(want.coeffs)
        checked += 1
    assert checked == 19 and connected >= 100


def test_potentials_match_the_dense_per_generator_oracle():
    # the Hermite residues partition the generators as the Smith keys do,
    # and each generator's domain from its class's least member is the
    # difference of the Smith particular solutions, normalized
    count = 0
    for d in setup_diagrams():
        ds = d.defects
        gens = enumerate_generators(d)
        ours, theirs = {}, {}
        for g in gens:
            ours.setdefault(ds._potential(g)[0], []).append(g)
            theirs.setdefault(dense_potential(d, g)[0], []).append(g)
        assert sorted(ours.values()) == sorted(theirs.values()), d.name
        for members in ours.values():
            first = dense_potential(d, members[0])[1]
            for g in members:
                sol = [b - a for a, b in zip(first, dense_potential(d, g)[1])]
                assert connecting_domain(d, members[0], g) == \
                    normalized(d, sol), (d.name, g)
        count += 1
    assert count == 138


def test_connecting_domain_rejects_bad_generators():
    d = build_example("s1s2", [])
    with pytest.raises(ValueError, match="non-crossing"):
        connecting_domain(d, (3,), (1,))


# -- admissibility ---------------------------------------------------------------


def _area_variants():
    for name in BUILDERS:
        d = build_example(name)
        yield d
        yield stabilize(d, min(d.regions))
        yield insert_marker(d, min(d.edges))
        yield permute_ids(d, 1)
    yield disjoint_union(build_example("spheres", [3]), build_example("s1s2"))
    yield disjoint_union(build_example("torus_lens", [3]),
                         build_example("annulus_s3_2"))
    yield disjoint_union(build_example("s1s2"), build_example("s1s2_disjoint"))


def test_corpus_admissibility():
    admissible = ["product", "torus_lens", "s1s2", "annulus_s3_2", "spheres",
                  "lens_knot", "nontaut", "hexagon"]
    for name in admissible:
        d = build_example(name, [2, 2] if name == "product" else
                          [3] if name in ("torus_lens", "spheres", "lens_knot")
                          else [])
        ok, witness = admissibility(d)
        assert ok and witness is None, name
        assert admissibility(d)[0]
        require_admissible(d)  # must not raise
    # the area form: positive integers under which periodic domains have
    # area zero, on the corpus, its move variants and disjoint unions
    checked = 0
    for d in _area_variants():
        if not admissibility(d)[0]:
            continue
        w = d.defects.area
        assert len(w) == len(d.interior_regions), d.name
        assert all(isinstance(v, int) and v > 0 for v in w), d.name
        for p in periodic_basis(d):
            assert sum(a * c for a, c in zip(w, p.coeffs)) == 0, d.name
        checked += 1
    assert checked >= 30


def test_inadmissible_witness():
    d = build_example("s1s2_disjoint", [])
    ok, witness = admissibility(d)
    assert not ok
    assert witness.describe() == "r1:1"
    assert min(witness.coeffs) >= 0 and any(witness.coeffs)
    # the witness really is periodic
    rows, _ = per_crossing_defect_system(d)
    for row in rows:
        assert sum(r * c for r, c in zip(row, witness.coeffs)) == 0
    with pytest.raises(NotAdmissibleError, match="positive periodic domain"):
        require_admissible(d)
    try:
        require_admissible(d)
    except NotAdmissibleError as e:
        assert e.witness == witness


def test_all_ones_certifies_where_the_basis_sums_vanish():
    # no program is built there, and the program it stands for reaches 0
    # with zero duals, so its area form would be all-ones as well
    certified = 0
    for d in itertools.chain(_area_variants(), _walk_variants()):
        ds = d.defects
        if not ds.periodic or any(sum(b) for b in ds.periodic):
            continue
        assert ds._program is None and ds.admissibility == (True, None)
        assert ds.area == (1,) * len(d.interior_regions), d.name
        res = admissibility_program(ds)
        assert res.objective == 0, d.name
        assert not any(res.dual), d.name
        certified += 1
    assert certified >= 76


def test_the_program_decides_a_lattice_whose_sums_do_not_vanish(monkeypatch):
    # (2, -1, 0, 0) and (0, 0, 1, -1) span an admissible lattice on which
    # all-ones has area 1, so the LP and its dual read-out must find the form
    lps = _count_calls(monkeypatch, ratlp, "maximize")
    d = build_example("spheres", [3])
    ds = d.defects
    _, second = ds.periodic
    ds.periodic = ((2, -1, 0, 0), second)
    assert ds.admissibility == (True, None)
    w = ds.area
    assert len(lps) == 1
    assert all(isinstance(v, int) and v > 0 for v in w)
    for p in ds.periodic:
        assert sum(a * c for a, c in zip(w, p)) == 0


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

    def of_index(a, b, index):
        return [dom for dom in positive_connecting_domains(d, a, b)
                if maslov_index(d, dom, a, b) == index]

    assert {dom.describe() for dom in of_index(y, x, 1)} == {"r1:1", "r2:1"}
    assert of_index(y, x, 2) == []
    assert of_index(x, x, 0) == [Domain(d, (0, 0))]


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


def _planted_areas():
    """spheres(4) and spheres(3) + spheres(3), fresh, with each band's two
    bigons given its own weight (2, 3, ...) in place of all-ones, the area
    form every packaged diagram gets."""
    spheres3 = build_example("spheres", [3])
    for d in (build_example("spheres", [4]), disjoint_union(spheres3, spheres3)):
        assert d.defects.area == (1,) * len(d.interior_regions)
        w = [1] * len(d.interior_regions)
        for i, p in enumerate(periodic_basis(d), start=2):
            for r, c in enumerate(p.coeffs):
                if c:
                    w[r] = i
        for p in periodic_basis(d):
            assert sum(a * c for a, c in zip(w, p.coeffs)) == 0
        d.defects.area = tuple(w)
        yield d


def test_positive_domains_under_a_nonuniform_area():
    # planted weights exercise D_r <= A // w_r
    for d, limit in zip(_planted_areas(), (math.inf, 1)):
        for base in coset_bases(d):
            assert d.defects._walk(base) == reference_walk(d.defects, base)
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                got = [dom.coeffs for dom in positive_connecting_domains(d, x, y)]
                # all-ones is an area form too, so no coefficient exceeds the
                # base's total; the union limits that cap to 1, since the full
                # cap costs minutes there, and spheres(4) covers the rest
                base = connecting_domain(d, x, y)
                cap = max(sum(base.coeffs), 0) if base is not None else 0
                want = brute_force_positive_domains(d, x, y, min(cap, limit))
                assert got == want, (x, y)


def _connected_pairs():
    """(d, x, y, canonical domain from x to y) for every connected ordered
    pair of ``_walk_variants()`` and of the planted non-uniform areas."""
    for d in itertools.chain(_walk_variants(), _planted_areas()):
        gens = enumerate_generators(d)
        for x, y in itertools.product(gens, repeat=2):
            base = connecting_domain(d, x, y)
            if base is not None:
                yield d, x, y, base


def test_pair_area_is_the_difference_of_generator_areas():
    # the area positive_connecting_domains reads from two potentials is that
    # of every domain of the pair, its canonical one included
    pairs = planted = 0
    for d, x, y, base in _connected_pairs():
        ds = d.defects
        got = ds._area(ds._potential(y)) - ds._area(ds._potential(x))
        assert got == sum(a * c for a, c in zip(ds.area, base.coeffs)), (
            d.name, x, y)
        pairs += 1
        planted += set(ds.area) != {1}
    assert (pairs, planted) == (9436, 328)


def test_pairs_of_no_positive_area_are_answered_without_a_base(monkeypatch):
    # A < 0, or A = 0 between different point sets: the oracle walk of the
    # canonical base finds no nonnegative domain, and the search says so
    # before it forms that base
    bases = _count_calls(monkeypatch, DefectSystem, "_base")
    decided = planted = 0
    for d, x, y, base in _connected_pairs():
        area = sum(a * c for a, c in zip(d.defects.area, base.coeffs))
        if area < 0 or not area and set(x) != set(y):
            assert reference_walk(d.defects, base.coeffs) == (), (d.name, x, y)
            bases.clear()
            assert positive_connecting_domains(d, x, y) == []
            assert bases == []
            decided += 1
            planted += set(d.defects.area) != {1}
    assert (decided, planted) == (5074, 151)
    # on spheres(5), one class of 16 generators, 147 of the 240 pairs
    # that boundary_matrix searches are answered from the areas alone, and
    # the other 93 share 31 exchange keys, one base for each
    d = build_example("spheres", [5])
    gens = enumerate_generators(d)
    bases.clear()
    for x, y in itertools.permutations(gens, 2):
        positive_connecting_domains(d, x, y)
    assert len(gens) == 16 and len(bases) == 31


def test_every_nonnegative_domain_has_the_grading_drop_as_index(monkeypatch):
    # boundary_matrix reads each pair's index from the class's gradings:
    # under modulus 0 every domain D from x to y has 4 mu(D) = w.D equal to
    # 4 (gr(x) - gr(y)), so no domain needs its own sum and all domains of
    # a pair share one index
    classes = []
    domains = pairs = several = 0
    for d in itertools.chain(_walk_variants(), _planted_areas()):
        for cls in spinc_partition(d):
            members = cls.members
            assert grading_modulus(d, min(members)) == 0, d.name
            gr = relative_gradings(d, members, 0)
            for x, y in itertools.product(members, repeat=2):
                w = index_weights(d, x, y)
                doms = positive_connecting_domains(d, x, y)
                for dom in doms:
                    assert sum(a * c for a, c in zip(w, dom.coeffs)) == \
                        4 * (gr[x] - gr[y]), (d.name, x, y, dom)
                domains += len(doms)
                pairs += bool(doms)
                several += len(doms) > 1
            classes.append((d, members))
    assert domains >= 9400 and pairs >= 3500 and several >= 2450, (
        domains, pairs, several)
    # under a nonzero modulus the gradings only rule pairs out: with the
    # modulus forced to 2, the rows equal those that sum every domain
    monkeypatch.setattr(homology, "grading_modulus", lambda d, member: 2)
    for d, members in classes:
        want = []
        for x in members:
            row = 0
            for j, y in enumerate(members):
                w = index_weights(d, x, y)
                if x != y and sum(
                        sum(a * c for a, c in zip(w, dom.coeffs)) == 4
                        for dom in positive_connecting_domains(d, x, y)) % 2:
                    row |= 1 << j
            want.append(row)
        assert homology.boundary_matrix(d, members) == want, d.name


def test_a_point_set_reaches_itself_by_the_zero_domain():
    # equal point sets, in any order or with a point repeated, have area 0
    # and the zero domain as their only nonnegative one
    for d in itertools.chain(_nice_variants(), _planted_areas()):
        zero = [Domain(d, (0,) * len(d.interior_regions))]
        for x in enumerate_generators(d):
            for y in (x, x[::-1], (*x, *x[:1])):
                assert positive_connecting_domains(d, x, y) == zero, (d.name, x)
                assert positive_connecting_domains(d, y, x) == zero, (d.name, x)


def _reduced(basis: list[list[int]], vec: list[int]) -> tuple[int, ...]:
    """vec reduced by the echelon basis: the canonical member of its coset,
    each lead brought into [0, that lead's entry)."""
    vec = list(vec)
    for b in basis:
        lead = next(i for i, c in enumerate(b) if c)
        q = vec[lead] // b[lead]
        vec = [a - q * c for a, c in zip(vec, b)]
    return tuple(vec)


def _exchanges(rng: random.Random, w: list[int]) -> list[int]:
    """A random vector of area 0 under w: a sum of a few exchanges
    k (w_b e_a - w_a e_b)."""
    v = [0] * len(w)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(len(w)), 2)
        k = rng.choice((-2, -1, 1, 2))
        v[a] += k * w[b]
        v[b] -= k * w[a]
    return v


def test_walk_on_planted_lattices_whose_rows_overlap():
    # no packaged lattice has a row touched by two basis vectors, so plant
    # reduced echelon bases of random lattices with area 0 under random
    # positive weights, and walk canonical bases of positive, zero and
    # negative area
    rng = random.Random(28)
    overlapping = 0
    areas = {"positive": 0, "zero": 0, "zero base": 0, "negative": 0}
    for _ in range(80):
        d = build_example("spheres", [rng.choice((4, 5))])
        n = len(d.interior_regions)
        w = [rng.randint(1, 3) for _ in range(n)]
        basis = intlinalg.hermite_columns(
            _exchanges(rng, w) for _ in range(rng.randint(1, n - 1)))
        ds = d.defects
        ds.periodic = tuple(map(tuple, basis))
        ds.area = tuple(w)
        touched = [sum(1 for b in basis if b[r]) for r in range(n)]
        overlapping += max(touched, default=0) > 1
        bases = {(0,) * n}
        for _ in range(6):
            bases.add(_reduced(basis, [rng.randint(-1, 2) for _ in range(n)]))
            bases.add(_reduced(basis, _exchanges(rng, w)))
        for base in sorted(bases):
            area = sum(a * c for a, c in zip(w, base))
            if area > 12:  # keeps the box small
                continue
            got = ds._walk(base)
            assert got == reference_walk(ds, base), (basis, w, base)
            assert list(got) == box_walk(ds, base)
            areas["positive" if area > 0 else "negative" if area < 0
                  else "zero" if any(base) else "zero base"] += 1
    assert overlapping >= 40, overlapping
    assert min(areas.values()) >= 20, areas


def test_positive_domains_require_admissible():
    d = build_example("s1s2_disjoint", [])
    for _ in range(3):  # the verdict is cached, the check is made every call
        with pytest.raises(NotAdmissibleError):
            positive_connecting_domains(d, (), ())


def test_positive_domains_memo_is_exact_and_isolated():
    # each coset is walked once per diagram; after every pair has been
    # searched, each answer equals a fresh copy's first search, and brute
    # force within the cap, and no caller can change it through the list
    diagrams = list(_nice_variants()) + [
        disjoint_union(build_example("spheres", [3]),
                       build_example("lens_knot", [4])),
        disjoint_union(build_example("torus_lens", [3]),
                       build_example("s1s2"))]
    pairs = connected = cosets = 0
    for d in diagrams:
        gens = enumerate_generators(d)
        text = serialize(d)
        first = {(x, y): positive_connecting_domains(d, x, y)
                 for x, y in itertools.product(gens, repeat=2)}
        for (x, y), doms in first.items():
            got = positive_connecting_domains(d, x, y)
            assert got == doms and got is not doms
            fresh = positive_connecting_domains(parse(text), x, y)
            want = [dom.coeffs for dom in fresh]
            assert [dom.coeffs for dom in got] == want, (d.name, x, y)
            if len(d.interior_regions) <= 4:
                capped = [c for c in want if max(c, default=0) <= 4]
                assert capped == brute_force_positive_domains(d, x, y, cap=4)
            got.clear()
            doms.append(Domain(d, (0,) * len(d.interior_regions)))
            again = positive_connecting_domains(d, x, y)
            assert [dom.coeffs for dom in again] == want, (d.name, x, y)
            pairs += 1
        bases = [connecting_domain(d, x, y) for x, y in first]
        connected += sum(base is not None for base in bases)
        cosets += len({base.coeffs for base in bases if base is not None})
    # pairs do share cosets, so later pairs read what earlier ones walked
    assert pairs == 564 and cosets < connected


def test_pair_cache_answers_each_pair_as_its_own_walk():
    # one answer per exchange key: every ordered pair, x == y included, is
    # searched forward and then in reverse, so the second pass reads what
    # the first kept, and each answer is the oracle walk of the pair's
    # canonical domain and the answer on a fresh copy
    spheres6 = build_example("spheres", [6])
    diagrams = itertools.chain(
        _walk_variants(), (permute_ids(spheres6, seed) for seed in (7, 8)))
    pairs = keys = 0
    for d in diagrams:
        ds, n = d.defects, len(d.interior_regions)
        order = list(itertools.product(enumerate_generators(d), repeat=2))
        walked = {}
        want = {}
        for x, y in order:
            base = connecting_domain(d, x, y)
            if base is not None and base.coeffs not in walked:
                walked[base.coeffs] = list(reference_walk(ds, base.coeffs))
            want[x, y] = [] if base is None else walked[base.coeffs]
        for x, y in order + order[::-1]:
            got = positive_connecting_domains(d, x, y)
            assert all(len(dom.coeffs) == n for dom in got), (d.name, x, y)
            assert [dom.coeffs for dom in got] == want[x, y], (d.name, x, y)
        fresh = parse(serialize(d))
        for x, y in order:
            assert [dom.coeffs for dom in positive_connecting_domains(
                fresh, x, y)] == want[x, y], (d.name, x, y)
        # one answer per exchange, and none shared by two exchanges: on the
        # lens parts, x minus y does not fix y minus x
        exchanges = {(frozenset(x) - frozenset(y), frozenset(y) - frozenset(x))
                     for x, y in order}
        assert len(ds._pairs) == len(exchanges), d.name
        pairs += len(order)
        keys += len(ds._pairs)
    # pairs share keys, so more than half of the first pass is lookups too
    assert pairs >= 28000 and keys < pairs // 2, (pairs, keys)


_NO_AREA_FORM = """
from sfh.builders import build_example

print("debug", __debug__)
try:
    print("returned", build_example("s1s2_disjoint", []).defects.area)
except ValueError as e:
    print("raised", e)
"""


def test_an_inadmissible_diagram_has_no_area_form_also_under_optimize(capsys):
    # python -O strips asserts, so the admissibility check raises
    exec(_NO_AREA_FORM, {})
    inline = capsys.readouterr().out.splitlines()
    env = dict(os.environ, PYTHONPATH=str(Path(sfh.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _NO_AREA_FORM],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    optimized = proc.stdout.splitlines()
    assert optimized[0] == "debug False" and inline[1:] == optimized[1:]
    assert optimized[1:] == ["raised an inadmissible diagram has no area form"]


def test_a_witness_that_is_not_positive_raises():
    # a program optimum whose point is no positive periodic domain must not
    # be handed out as the witness
    ds = build_example("s1s2_disjoint", []).defects
    ds._program = ratlp.LPResult(1, [-1], [])
    with pytest.raises(RuntimeError, match="not a nonzero nonnegative"):
        ds.admissibility


def test_positive_domains_on_grid_fixture(grid2):
    x, y = enumerate_generators(grid2)
    assert {dom.describe()
            for dom in positive_connecting_domains(grid2, x, y)} \
        == {"r1:1", "r2:1"}
    assert positive_connecting_domains(grid2, y, x) == []
