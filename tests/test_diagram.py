"""Cell-complex validation, balance, and generator enumeration."""
from __future__ import annotations

import pytest

from sfh.builders import BUILDERS, build_example
from sfh.diagram import (
    ALPHA,
    BD,
    BETA,
    CROSSING,
    MARKER,
    Diagram,
    Edge,
    InvalidDiagramError,
    Region,
    Vertex,
    balance_report,
    enumerate_generators,
)

from oracles import (brute_force_generators, circle_edges, circle_order,
                     quadrants)

CORPUS = [
    build_example("product", [1, 1]),
    build_example("torus_lens", [1]),
    build_example("torus_lens", [3]),
    build_example("s1s2", []),
    build_example("s1s2_disjoint", []),
    build_example("annulus_s3_2", []),
    build_example("spheres", [3]),
    build_example("lens_knot", [3]),
    build_example("nontaut", []),
    build_example("hexagon", []),
]


def rebuild(d, *, vertices=None, edges=None, regions=None):
    return Diagram(
        vertices if vertices is not None else list(d.vertices.values()),
        edges if edges is not None else list(d.edges.values()),
        regions if regions is not None else list(d.regions.values()),
        name=d.name,
    )


def errors_of(**kw):
    d = build_example("s1s2", [])
    return rebuild(d, **kw).validation_errors()


# -- constructor-level duplicate checks --------------------------------------


def test_duplicate_ids_rejected():
    d = build_example("s1s2", [])
    with pytest.raises(InvalidDiagramError, match="duplicate vertex id"):
        rebuild(d, vertices=list(d.vertices.values()) * 2)
    with pytest.raises(InvalidDiagramError, match="duplicate edge id"):
        rebuild(d, edges=list(d.edges.values()) * 2)
    with pytest.raises(InvalidDiagramError, match="duplicate region id"):
        rebuild(d, regions=list(d.regions.values()) * 2)


# -- validation error catalog -------------------------------------------------


def test_id_and_kind_errors():
    d = build_example("s1s2", [])
    vs = [Vertex(0, CROSSING)] + list(d.vertices.values())[1:]
    assert any("not positive" in e for e in rebuild(d, vertices=vs).validation_errors())
    vs = [Vertex(1, "blob")] + list(d.vertices.values())[1:]
    assert any("unknown kind" in e for e in rebuild(d, vertices=vs).validation_errors())


def test_edge_reference_errors():
    d = build_example("s1s2", [])
    es = list(d.edges.values())
    es[0] = Edge(es[0].id, es[0].curve, es[0].index, 99, es[0].head)
    assert any("missing vertex 99" in e
               for e in rebuild(d, edges=es).validation_errors())
    es = list(d.edges.values())
    es[0] = Edge(es[0].id, "gamma", es[0].index, es[0].tail, es[0].head)
    assert any("unknown curve kind" in e
               for e in rebuild(d, edges=es).validation_errors())
    es = list(d.edges.values())
    es[0] = Edge(es[0].id, es[0].curve, 0, es[0].tail, es[0].head)
    assert any("non-positive circle index" in e
               for e in rebuild(d, edges=es).validation_errors())


def test_region_shape_errors():
    d = build_example("s1s2", [])
    rs = list(d.regions.values())
    rs[0] = Region(rs[0].id, -1, rs[0].cycles)
    assert any("negative genus" in e
               for e in rebuild(d, regions=rs).validation_errors())
    rs = list(d.regions.values())
    rs[0] = Region(rs[0].id, 0, ())
    assert any("no boundary cycles" in e
               for e in rebuild(d, regions=rs).validation_errors())
    rs = list(d.regions.values())
    rs[0] = Region(rs[0].id, 0, ((),))
    assert any("empty boundary cycle" in e
               for e in rebuild(d, regions=rs).validation_errors())
    rs = list(d.regions.values())
    rs[0] = Region(rs[0].id, 0, ((77,),))
    assert any("missing edge 77" in e
               for e in rebuild(d, regions=rs).validation_errors())


def test_boundary_edge_must_touch_markers():
    d = build_example("s1s2", [])
    # point the suture edge at a crossing instead of its marker
    es = [Edge(e.id, e.curve, e.index, 1, 1) if e.curve == BD else e
          for e in d.edges.values()]
    assert any("touches non-marker vertex" in e
               for e in rebuild(d, edges=es).validation_errors())


def test_vertex_degree_errors():
    d = build_example("s1s2", [])
    # reroute one alpha edge so a crossing loses an end
    es = []
    for e in d.edges.values():
        if e.id == 1:
            es.append(Edge(1, e.curve, e.index, e.tail, e.tail))
        else:
            es.append(e)
    msgs = rebuild(d, edges=es).validation_errors()
    assert any("must carry one alpha circle" in m for m in msgs)


def test_circle_closure_errors():
    d = build_example("s1s2", [])
    # two disjoint loops wearing the same circle index
    vs = list(d.vertices.values()) + [Vertex(4, MARKER), Vertex(5, MARKER)]
    es = list(d.edges.values()) + [
        Edge(7, ALPHA, 2, 4, 4),
        Edge(8, ALPHA, 2, 5, 5),
    ]
    msgs = rebuild(d, vertices=vs, edges=es).validation_errors()
    assert any("is not a single closed loop" in m for m in msgs)


def test_cycle_consistency_errors():
    d = build_example("s1s2", [])
    rs = []
    for r in d.regions.values():
        if r.id == 1:
            rs.append(Region(1, 0, ((1, 3),)))  # flipped sign breaks the chain
        else:
            rs.append(r)
    msgs = rebuild(d, regions=rs).validation_errors()
    assert any("cycle breaks" in m for m in msgs) or any(
        "used" in m for m in msgs)


def test_edge_usage_errors():
    d = build_example("s1s2", [])
    # drop a region: its edges lose one traversal each
    rs = [r for r in d.regions.values() if r.id != 1]
    msgs = rebuild(d, regions=rs).validation_errors()
    assert any("want once each way" in m for m in msgs)


def test_valid_corpus_validates():
    for d in CORPUS:
        assert d.validation_errors() == []


# -- local structure ----------------------------------------------------------


def test_quadrants_and_corners():
    for d in CORPUS:
        quads = quadrants(d)
        for v in d.crossings:
            assert len(quads[v]) == 4
        for v in d.markers:
            on_bd = any(e.curve == BD and v in (e.tail, e.head)
                        for e in d.edges.values())
            assert len(d.corners_by_vertex[v]) == (1 if on_bd else 2)


def test_edge_sides_cover_usage():
    for d in CORPUS:
        for e in d.edges.values():
            pos, neg = d.edge_sides[e.id]
            if e.curve == BD:
                assert (pos is None) != (neg is None)
            else:
                assert pos is not None and neg is not None


def test_circle_order_is_cyclic_cover():
    for d in CORPUS:
        for (curve, index), verts in circle_order(d).items():
            edges = circle_edges(d, curve, index)
            assert len(verts) == len(edges)


# -- balance -------------------------------------------------------------------


def test_corpus_is_balanced():
    for d in CORPUS:
        assert balance_report(d) == [], d.name


def test_unbalanced_alpha_only_disk():
    d = Diagram(
        [Vertex(1, MARKER), Vertex(2, MARKER)],
        [Edge(1, ALPHA, 1, 1, 1), Edge(2, BD, 1, 2, 2)],
        [Region(1, 0, ((1,),)), Region(2, 0, ((-1,), (2,)))],
        name="alpha_disk",
    )
    d.validate()
    report = balance_report(d)
    assert any("alpha circles vs" in p for p in report)
    assert any("misses the boundary" in p for p in report)
    assert report


# -- generators ----------------------------------------------------------------


def test_generators_match_brute_force():
    for d in CORPUS:
        assert enumerate_generators(d) == brute_force_generators(d), d.name


def test_generator_counts():
    counts = {
        "product(1,1)": 1,
        "torus_lens(3)": 3,
        "s1s2": 2,
        "annulus_s3_2": 2,
        "spheres(3)": 4,
        "lens_knot(3)": 3,
        "nontaut": 0,
    }
    for name, want in counts.items():
        d = next(x for x in CORPUS if x.name == name)
        assert len(enumerate_generators(d)) == want, name


def test_generators_are_sorted_tuples():
    for d in CORPUS:
        gens = enumerate_generators(d)
        assert gens == sorted(gens)
        for g in gens:
            assert g == tuple(sorted(g))
            assert len(g) == d.alpha_count
