"""Twelve end-to-end checks, one printed verdict line each.

Every value is an exact integer equality.  Run with ``pytest -s`` to see the
verdict lines while the suite runs; without ``-s`` pytest shows them for any
failing criterion.
"""
from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from operator import add

import pytest

from sfh.builders import (annulus_s3_2, hexagon_example, lens_knot_meridian,
                          nontaut_example, product_diagram, s1s2_diagram,
                          s1s2_disjoint, spheres_diagram, torus_lens_diagram)
from sfh.diagram import (ALPHA, BD, BETA, Diagram, balance_report,
                         enumerate_generators)
from sfh.domains import (Domain, NotAdmissibleError, admissibility,
                         connecting_domain, h2_rank,
                         periodic_basis, positive_connecting_domains,
                         require_admissible)
from sfh.homology import (NotNiceError, boundary_matrix, niceness_report, sfh,
                          verify_d_squared)
from sfh.moves import stabilize
from sfh.spinc import grading_modulus, spinc_partition

from oracles import (brute_force_boundary_matrix, brute_force_positive_domains,
                     maslov_index, per_crossing_defect_system)
from surgery import ProductArc, cut_product_arc, delete_curve_pair


def corpus() -> list[Diagram]:
    return [
        product_diagram(1, 1),
        torus_lens_diagram(3),
        s1s2_diagram(),
        s1s2_disjoint(),
        annulus_s3_2(),
        spheres_diagram(3),
        lens_knot_meridian(3),
        nontaut_example(),
        hexagon_example(),
    ]


def computable(d: Diagram) -> bool:
    # the two negative examples: s1s2_disjoint fails admissibility and the
    # hexagon fails niceness, so the count itself is undefined on them
    return admissibility(d)[0] and not niceness_report(d)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {label}: FAIL")
        raise
    print(f"criterion {num:02d} {label}: PASS")


def test_criterion_01_products_have_rank_one():
    with criterion(1, "product diagrams have total rank 1"):
        for g, b in ((0, 1), (0, 3), (1, 1), (2, 2)):
            assert sfh(product_diagram(g, b)).total_rank == 1


def test_criterion_02_three_sphere():
    with criterion(2, "one-punctured lens diagram at p=1 has rank 1"):
        assert sfh(torus_lens_diagram(1)).total_rank == 1


def test_criterion_03_s1s2():
    with criterion(3, "double bigon: rank 2 in one class, gradings 0 and 1"):
        res = sfh(s1s2_diagram())
        assert res.total_rank == 2
        (cls,) = res.classes
        assert cls.modulus == 0
        assert cls.ranks == {0: 1, 1: 1}
        assert sorted(cls.gradings.values()) == [0, 1]


def test_criterion_04_annulus():
    with criterion(4, "annulus double bigon has rank 2"):
        assert sfh(annulus_s3_2()).total_rank == 2


def test_criterion_05_spheres():
    with criterion(5, "n-holed sphere has rank 2^(n-1) for n=1..4"):
        for n in range(1, 5):
            assert sfh(spheres_diagram(n)).total_rank == 2 ** (n - 1)


def test_criterion_06_lens_knot():
    with criterion(6, "lens meridian has k singleton classes for k=1..4"):
        for k in range(1, 5):
            res = sfh(lens_knot_meridian(k))
            assert res.total_rank == k
            assert len(res.classes) == k
            assert all(len(c.members) == 1 and c.total == 1
                       for c in res.classes)


def test_criterion_07_vanishing():
    with criterion(7, "non-taut example has rank 0"):
        assert sfh(nontaut_example()).total_rank == 0


def legal_arcs(d: Diagram) -> list[ProductArc]:
    arcs = []
    for r in d.regions.values():
        bd_edges = sorted({abs(ref) for cyc in r.cycles for ref in cyc
                           if d.edges[abs(ref)].curve == BD})
        for e in bd_edges:
            arcs.append(ProductArc(r.id, (e, 0), (e, 1)))
        for e1, e2 in itertools.combinations(bd_edges, 2):
            arcs.append(ProductArc(r.id, (e1, 0), (e2, 0)))
    return arcs


def test_criterion_08_invariance_under_moves():
    with criterion(8, "homology invariant under stabilization and arc cuts"):
        for d in corpus():
            defined = computable(d)
            base = sfh(d).signature() if defined else None
            gens = len(enumerate_generators(d))
            for rid in sorted(d.regions):
                s = stabilize(d, rid)
                s.validate()
                assert balance_report(s) == []
                assert len(enumerate_generators(s)) == gens
                assert h2_rank(s) == h2_rank(d)
                if not defined:
                    continue
                if rid in d.interior_regions:
                    # the region keeps its extra boundary cycle, which the
                    # counting pipeline must refuse
                    with pytest.raises(NotNiceError):
                        sfh(s)
                else:
                    assert sfh(s).signature() == base
            for arc in legal_arcs(d):
                c = cut_product_arc(d, arc)
                c.validate()
                assert balance_report(c) == []
                assert len(enumerate_generators(c)) == gens
                assert h2_rank(c) == h2_rank(d)
                if defined:
                    assert sfh(c).signature() == base


def test_criterion_09_d_squared():
    with criterion(9, "the differential squares to zero on the corpus"):
        for d in corpus():
            if not computable(d):
                continue
            for cls in spinc_partition(d):
                verify_d_squared(d, cls.members,
                                 boundary_matrix(d, cls.members))


def test_criterion_10_admissibility():
    with criterion(10, "empty periodic basis forces admissibility"):
        subdiagrams = 0
        for di, start in enumerate(corpus()):
            for seed in range(4):
                rng = random.Random(100 * di + seed)
                d = start
                while True:
                    alphas = sorted({e.index for e in d.edges.values()
                                     if e.curve == ALPHA})
                    betas = sorted({e.index for e in d.edges.values()
                                    if e.curve == BETA})
                    if not alphas or not betas:
                        break
                    try:
                        d = delete_curve_pair(d, rng.choice(alphas),
                                              rng.choice(betas))
                    except ValueError:
                        break  # the deletion would close off the surface
                    subdiagrams += 1
                    if not periodic_basis(d):
                        assert admissibility(d)[0]
        assert subdiagrams >= 20

        d = s1s2_disjoint()
        ok, witness = admissibility(d)
        assert not ok
        assert witness is not None
        assert min(witness.coeffs) >= 0 and any(witness.coeffs)
        rows, _ = per_crossing_defect_system(d)
        assert all(sum(a * c for a, c in zip(row, witness.coeffs)) == 0
                   for row in rows)
        with pytest.raises(NotAdmissibleError):
            require_admissible(d)


def test_criterion_11_oracle_equivalence():
    with criterion(11, "counts agree with brute-force enumeration"):
        for d in corpus():
            if len(d.interior_regions) > 6 or not admissibility(d)[0]:
                continue
            for cls in spinc_partition(d):
                if not niceness_report(d):
                    assert boundary_matrix(d, cls.members) == \
                        brute_force_boundary_matrix(d, cls.members)
                for x, y in itertools.product(cls.members, repeat=2):
                    doms = positive_connecting_domains(d, x, y)
                    assert len(set(doms)) == len(doms)
                    coeffs = [c for dom in doms for c in dom.coeffs]
                    cap = 1 + max(coeffs, default=0)
                    assert all(c < cap for c in coeffs)
                    brute = brute_force_positive_domains(d, x, y, cap)
                    assert [dom.coeffs for dom in doms] == brute


def test_criterion_12_grading_consistency():
    with criterion(12, "gradings additive and independent of domain choice"):
        for d in corpus():
            pb = periodic_basis(d)
            for cls in spinc_partition(d):
                members = cls.members
                doms = {(x, y): connecting_domain(d, x, y)
                        for x in members for y in members}
                for x, y, z in itertools.product(members, repeat=3):
                    whole = maslov_index(
                        d, Domain(d, map(add, doms[x, y].coeffs,
                                         doms[y, z].coeffs)), x, z)
                    assert whole == (maslov_index(d, doms[x, y], x, y)
                                     + maslov_index(d, doms[y, z], y, z))
                x0 = min(members)
                dd = grading_modulus(d, x0)
                for y in members:
                    base = maslov_index(d, doms[x0, y], x0, y)
                    for p in pb:
                        alt = maslov_index(
                            d, Domain(d, map(add, doms[x0, y].coeffs,
                                             p.coeffs)), x0, y)
                        if dd:
                            assert (alt - base) % dd == 0
                        else:
                            assert alt == base

        d = s1s2_diagram()
        x, y = enumerate_generators(d)
        b1 = Domain(d, (1, 0))
        b2 = Domain(d, (0, 1))
        assert maslov_index(d, b1, y, x) == maslov_index(d, b2, y, x) == 1
        assert maslov_index(d, Domain(d, (1, -1)), x, x) == 0
