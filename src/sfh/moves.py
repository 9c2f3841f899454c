"""Moves that transform diagrams into other diagrams.

Stabilization and marker insertion preserve the homology; disjoint union
multiplies it; relabeling ids changes nothing but the names.  Every move
returns a new diagram and leaves its input untouched.  A move of valid
diagrams gives a valid one, so the result is not validated here: like any
diagram, it is validated on first use (``sfh()``, or the first read of a cell
table).
"""
from __future__ import annotations

import random

from .diagram import (ALPHA, BD, BETA, CROSSING, MARKER, Diagram, Edge,
                      Region, Vertex)


def _next_ids(d: Diagram) -> tuple[int, int, int]:
    return (max(d.vertices, default=0), max(d.edges, default=0),
            max(d.regions, default=0))


def stabilize(d: Diagram, region_id: int) -> Diagram:
    """Add a crossing with an alpha loop and a beta loop inside one region.

    The region gains the loop pair as an extra boundary cycle.  The new
    circles meet only each other and only once, so every generator extends
    uniquely and the homology is unchanged.  Stabilizing inside an interior
    region is legal but leaves that region with two boundary cycles, which
    breaks niceness.
    """
    if region_id not in d.regions:
        raise ValueError(f"no region {region_id}")
    nv, ne, _ = _next_ids(d)
    v = nv + 1
    a, b = ne + 1, ne + 2
    vertices = list(d.vertices.values()) + [Vertex(v, CROSSING)]
    edges = list(d.edges.values()) + [
        Edge(a, ALPHA, max(d.curve_indices(ALPHA), default=0) + 1, v, v),
        Edge(b, BETA, max(d.curve_indices(BETA), default=0) + 1, v, v),
    ]
    regions = []
    for r in d.regions.values():
        if r.id == region_id:
            regions.append(Region(r.id, r.genus,
                                  r.cycles + ((a, b, -a, -b),)))
        else:
            regions.append(r)
    return Diagram(vertices, edges, regions,
                   name=f"{d.name}+stab(r{region_id})" if d.name else None)


def insert_marker(d: Diagram, edge_id: int) -> Diagram:
    """Subdivide an edge at a fresh marker vertex."""
    if edge_id not in d.edges:
        raise ValueError(f"no edge {edge_id}")
    e = d.edges[edge_id]
    nv, ne, _ = _next_ids(d)
    m = nv + 1
    e1, e2 = ne + 1, ne + 2
    vertices = list(d.vertices.values()) + [Vertex(m, MARKER)]
    edges = [x for x in d.edges.values() if x.id != edge_id] + [
        Edge(e1, e.curve, e.index, e.tail, m),
        Edge(e2, e.curve, e.index, m, e.head),
    ]
    regions = []
    for r in d.regions.values():
        cycles = []
        for cyc in r.cycles:
            new = []
            for ref in cyc:
                if ref == edge_id:
                    new += [e1, e2]
                elif ref == -edge_id:
                    new += [-e2, -e1]
                else:
                    new.append(ref)
            cycles.append(tuple(new))
        regions.append(Region(r.id, r.genus, tuple(cycles)))
    return Diagram(vertices, edges, regions, name=d.name)


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side; ids and circle indices of the second
    are shifted past those of the first."""
    nv, ne, nr = _next_ids(d1)
    shift = {c: max(d1.curve_indices(c), default=0) for c in (ALPHA, BETA, BD)}
    vertices = list(d1.vertices.values()) + [
        Vertex(v.id + nv, v.kind) for v in d2.vertices.values()]
    edges = list(d1.edges.values()) + [
        Edge(e.id + ne, e.curve, e.index + shift[e.curve],
             e.tail + nv, e.head + nv)
        for e in d2.edges.values()]

    def shift_ref(ref: int) -> int:
        return ref + ne if ref > 0 else ref - ne

    regions = list(d1.regions.values()) + [
        Region(r.id + nr, r.genus,
               tuple(tuple(shift_ref(ref) for ref in cyc) for cyc in r.cycles))
        for r in d2.regions.values()]
    name = None
    if d1.name and d2.name:
        name = f"{d1.name}|{d2.name}"
    return Diagram(vertices, edges, regions, name=name)


def permute_ids(d: Diagram, seed: int = 0) -> Diagram:
    """Relabel ids and circle indices by a seeded random bijection."""
    rng = random.Random(seed)

    def perm(ids):
        ids = sorted(ids)
        target = ids[:]
        rng.shuffle(target)
        return dict(zip(ids, target))

    vp = perm(d.vertices)
    ep = perm(d.edges)
    rp = perm(d.regions)
    ip = {c: perm(d.curve_indices(c)) for c in (ALPHA, BETA, BD)}
    vertices = [Vertex(vp[v.id], v.kind) for v in d.vertices.values()]
    edges = [Edge(ep[e.id], e.curve, ip[e.curve][e.index],
                  vp[e.tail], vp[e.head])
             for e in d.edges.values()]
    regions = [
        Region(rp[r.id], r.genus,
               tuple(tuple(ep[ref] if ref > 0 else -ep[-ref] for ref in cyc)
                     for cyc in r.cycles))
        for r in d.regions.values()]
    return Diagram(vertices, edges, regions, name=d.name)
