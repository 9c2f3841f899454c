"""Diagram moves: invariance of the homology and the shape bookkeeping."""
from __future__ import annotations

import pytest

from sfh.builders import build_example
from sfh.diagram import (ALPHA, BD, BETA, CROSSING, Diagram, Edge,
                         InvalidDiagramError, Region, Vertex, balance_report,
                         enumerate_generators)
from sfh.domains import h2_rank
from sfh.homology import NotNiceError, sfh
from sfh.moves import disjoint_union, insert_marker, permute_ids, stabilize

from surgery import ProductArc, cut_product_arc, delete_curve_pair

SFH_CORPUS = [
    ("product", [1, 1]),
    ("torus_lens", [3]),
    ("s1s2", []),
    ("annulus_s3_2", []),
    ("spheres", [3]),
    ("lens_knot", [3]),
]


# -- relabeling -----------------------------------------------------------------


@pytest.mark.parametrize("name,params", SFH_CORPUS)
def test_permute_ids_preserves_signature(name, params):
    d = build_example(name, params)
    base = sfh(d).signature()
    for seed in (1, 7):
        p = permute_ids(d, seed)
        p.validate()
        assert sfh(p).signature() == base


def test_permute_ids_is_a_bijection():
    d = build_example("spheres", [3])
    p = permute_ids(d, 3)
    assert sorted(p.vertices) == sorted(d.vertices)
    assert sorted(p.edges) == sorted(d.edges)
    assert sorted(p.regions) == sorted(d.regions)
    assert sorted(v.kind for v in p.vertices.values()) == \
        sorted(v.kind for v in d.vertices.values())
    assert p.name == d.name


# -- stabilization --------------------------------------------------------------


def boundary_regions(d: Diagram) -> list[int]:
    return [r for r in d.regions if r not in d.interior_regions]


def test_stabilize_boundary_region_keeps_signature():
    for name, params in SFH_CORPUS:
        d = build_example(name, params)
        base = sfh(d).signature()
        for rid in boundary_regions(d):
            s = stabilize(d, rid)
            s.validate()
            assert sfh(s).signature() == base, (name, rid)


def test_stabilize_twice():
    d = build_example("torus_lens", [3])
    rid = boundary_regions(d)[0]
    s2 = stabilize(stabilize(d, rid), rid)
    assert sfh(s2).signature() == sfh(d).signature()


def test_stabilize_interior_region_breaks_niceness():
    d = build_example("s1s2", [])
    si = stabilize(d, d.interior_regions[0])
    si.validate()
    with pytest.raises(NotNiceError, match="boundary cycles"):
        sfh(si)


def test_stabilize_bookkeeping():
    for name, params in SFH_CORPUS:
        d = build_example(name, params)
        s = stabilize(d, boundary_regions(d)[0])
        # a handle with a canceling curve pair: Euler characteristic -2
        assert s.euler_characteristic() == d.euler_characteristic() - 2
        assert len(s.crossings) == len(d.crossings) + 1
        # the new circles meet once, so every generator extends uniquely
        assert len(enumerate_generators(s)) == len(enumerate_generators(d))
        assert h2_rank(s) == h2_rank(d)


def test_stabilize_unknown_region():
    with pytest.raises(ValueError, match="no region 99"):
        stabilize(build_example("s1s2", []), 99)


# -- marker insertion -----------------------------------------------------------


def test_insert_marker_is_invisible():
    d = build_example("s1s2", [])
    m = insert_marker(d, 1)
    m.validate()
    # crossings and generators are untouched, so even the per-class
    # rendering is identical, not just the normalized signature
    assert sfh(m).render_lines() == sfh(d).render_lines()
    m2 = insert_marker(m, max(m.edges))
    assert sfh(m2).render_lines() == sfh(d).render_lines()


def test_insert_marker_unknown_edge():
    with pytest.raises(ValueError, match="no edge 77"):
        insert_marker(build_example("s1s2", []), 77)


# -- disjoint union -------------------------------------------------------------


def test_disjoint_union_multiplies_rank():
    a = build_example("torus_lens", [2])
    b = build_example("spheres", [2])
    u = disjoint_union(a, b)
    u.validate()
    ra, rb, ru = sfh(a), sfh(b), sfh(u)
    assert ru.total_rank == ra.total_rank * rb.total_rank == 4
    assert len(ru.classes) == len(ra.classes) * len(rb.classes)
    assert u.name == "torus_lens(2)|spheres(2)"


def test_disjoint_union_of_products_is_a_product():
    u = disjoint_union(build_example("product", [1, 1]),
                       build_example("product", [0, 3]))
    assert sfh(u).total_rank == 1


def test_disjoint_union_with_s1s2():
    u = disjoint_union(build_example("s1s2", []),
                       build_example("torus_lens", [3]))
    assert sfh(u).total_rank == 6


# -- product-arc cuts -----------------------------------------------------------


def test_cut_merging_two_boundary_circles(s1s2_two_punctures):
    d = s1s2_two_punctures
    base = sfh(d).signature()
    assert base == sfh(build_example("s1s2", [])).signature()
    cut = cut_product_arc(d, ProductArc(3, (5, 0), (6, 0)))
    cut.validate()
    assert len({e.index for e in cut.edges.values() if e.curve == BD}) == 1
    assert sfh(cut).signature() == base


def test_cut_splitting_one_boundary_circle(s1s2_two_punctures):
    base = sfh(s1s2_two_punctures).signature()
    cut = cut_product_arc(s1s2_two_punctures, ProductArc(3, (5, 0), (6, 0)))
    bd_edges = sorted(e.id for e in cut.edges.values() if e.curve == BD)
    rid = next(r.id for r in cut.regions.values()
               if any(abs(x) in bd_edges for c in r.cycles for x in c))
    cut2 = cut_product_arc(cut, ProductArc(rid, (bd_edges[0], 0),
                                           (bd_edges[2], 0)))
    cut2.validate()
    assert len({e.index for e in cut2.edges.values() if e.curve == BD}) == 2
    assert sfh(cut2).signature() == base


@pytest.mark.parametrize("offsets", [(0, 1), (1, 0)])
def test_cut_with_both_points_on_one_edge(offsets):
    d = build_example("s1s2", [])
    base = sfh(d).signature()
    bde = next(e.id for e in d.edges.values() if e.curve == BD)
    rid = next(r.id for r in d.regions.values()
               if any(abs(x) == bde for c in r.cycles for x in c))
    oa, ob = offsets
    cut = cut_product_arc(d, ProductArc(rid, (bde, oa), (bde, ob)))
    cut.validate()
    assert len({e.index for e in cut.edges.values() if e.curve == BD}) == 2
    assert sfh(cut).signature() == base


def test_cut_annulus_product_gives_disk_product():
    p = build_example("product", [0, 2])
    bd = sorted(e.id for e in p.edges.values() if e.curve == BD)
    rid = next(iter(p.regions))
    cut = cut_product_arc(p, ProductArc(rid, (bd[0], 0), (bd[1], 0)))
    cut.validate()
    assert len({e.index for e in cut.edges.values() if e.curve == BD}) == 1
    assert sfh(cut).signature() == \
        sfh(build_example("product", [0, 1])).signature()


def test_cut_errors(s1s2_two_punctures):
    d = s1s2_two_punctures
    with pytest.raises(ValueError, match="must sit on a boundary edge"):
        cut_product_arc(d, ProductArc(3, (1, 0), (5, 0)))
    with pytest.raises(ValueError, match="is not on region 1"):
        cut_product_arc(d, ProductArc(1, (5, 0), (6, 0)))
    with pytest.raises(ValueError, match="cut points coincide"):
        cut_product_arc(d, ProductArc(3, (5, 0), (5, 0)))
    with pytest.raises(ValueError, match="no region 42"):
        cut_product_arc(d, ProductArc(42, (5, 0), (6, 0)))


# -- curve-pair deletion ---------------------------------------------------------


def test_delete_pair_from_s1s2_gives_torus():
    dd = delete_curve_pair(build_example("s1s2", []), 1, 1)
    dd.validate()
    assert not dd.crossings
    (r,) = dd.regions.values()
    assert (r.genus, len(r.cycles)) == (1, 1)
    assert sfh(dd).signature() == \
        sfh(build_example("product", [1, 1])).signature()


def test_delete_pair_from_spheres():
    dd = delete_curve_pair(build_example("spheres", [3]), 1, 1)
    dd.validate()
    assert sfh(dd).signature() == sfh(build_example("spheres", [2])).signature()


def test_delete_pair_from_torus_lens():
    dd = delete_curve_pair(build_example("torus_lens", [1]), 1, 1)
    dd.validate()
    (r,) = dd.regions.values()
    assert (r.genus, len(r.cycles)) == (1, 1)


def test_delete_missing_circle():
    d = build_example("s1s2", [])
    with pytest.raises(ValueError, match="no alpha circle 2"):
        delete_curve_pair(d, 2, 1)
    with pytest.raises(ValueError, match="no beta circle 7"):
        delete_curve_pair(d, 1, 7)


def test_delete_refuses_to_close_the_surface():
    # a closed torus carrying one canceling pair: valid as a cell complex,
    # but removing the pair would leave a region with no boundary at all
    t = Diagram(
        [Vertex(1, CROSSING)],
        [Edge(1, ALPHA, 1, 1, 1), Edge(2, BETA, 1, 1, 1)],
        [Region(1, 0, ((1, 2, -1, -2),))],
        name="closed")
    t.validate()
    with pytest.raises(ValueError, match="close off regions \\[1\\]"):
        delete_curve_pair(t, 1, 1)


# -- validation at first use ----------------------------------------------------


def test_moves_leave_validation_to_first_use():
    # a move does not check its input or its output; a corrupted diagram
    # passes through, and the first use of the result rejects it
    d = build_example("torus_lens", [3])
    broken = Diagram(d.vertices.values(), d.edges.values(),
                     list(d.regions.values())[1:], name="dropped region")
    for out in (permute_ids(broken, 5),
                disjoint_union(broken, build_example("s1s2", [])),
                disjoint_union(build_example("s1s2", []), broken),
                insert_marker(broken, 1)):
        with pytest.raises(InvalidDiagramError, match="used \\+1/-0 times"):
            sfh(out)
        with pytest.raises(InvalidDiagramError):
            balance_report(out)
        with pytest.raises(InvalidDiagramError):
            out.defects
