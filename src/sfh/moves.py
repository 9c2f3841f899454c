"""Moves that transform diagrams into other diagrams.

Stabilization, marker insertion, and product-arc cuts preserve the
homology; disjoint union multiplies it; deleting a curve pair produces a
genuinely different (but still valid and balanced) diagram.  Every move
returns a new diagram and leaves its input untouched.  A move of valid
diagrams gives a valid one, so the result is not validated here: like any
diagram, it is validated on first use (``sfh()``, or the first read of a cell
table).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .diagram import (ALPHA, BD, BETA, CROSSING, MARKER, Diagram, Edge,
                      Region, Vertex, ref_edge)


def _next_ids(d: Diagram) -> tuple[int, int, int]:
    return (max(d.vertices, default=0), max(d.edges, default=0),
            max(d.regions, default=0))


def _max_index(d: Diagram, curve: str) -> int:
    return max((e.index for e in d.edges.values() if e.curve == curve), default=0)


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
        Edge(a, ALPHA, _max_index(d, ALPHA) + 1, v, v),
        Edge(b, BETA, _max_index(d, BETA) + 1, v, v),
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
    shift = {c: _max_index(d1, c) for c in (ALPHA, BETA, BD)}
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


# -- product-arc cuts ---------------------------------------------------------


@dataclass(frozen=True)
class ProductArc:
    """Arc across a region between two boundary-edge points.

    Each endpoint is (boundary edge id, offset); offsets order the two
    endpoints along the edge direction when they land on the same edge and
    are ignored otherwise.
    """
    region: int
    start: tuple[int, int]
    end: tuple[int, int]


def _relabel_bd_circles(edges: list[Edge]) -> list[Edge]:
    # group boundary edges into circles by walking, then index the circles
    # 1, 2, ... in order of their smallest edge id
    bd = {e.id: e for e in edges if e.curve == BD}
    out_at = {e.tail: e for e in bd.values()}
    index_of: dict[int, int] = {}
    circles = []
    seen = set()
    for eid in sorted(bd):
        if eid in seen:
            continue
        circle = [eid]
        seen.add(eid)
        cur = bd[eid]
        while True:
            cur = out_at[cur.head]
            if cur.id == eid:
                break
            circle.append(cur.id)
            seen.add(cur.id)
        circles.append(circle)
    for i, circle in enumerate(sorted(circles, key=min), start=1):
        for eid in circle:
            index_of[eid] = i
    result = []
    for e in edges:
        if e.curve == BD:
            result.append(Edge(e.id, BD, index_of[e.id], e.tail, e.head))
        else:
            result.append(e)
    return result


def cut_product_arc(d: Diagram, arc: ProductArc) -> Diagram:
    """Cut the surface along an arc between two boundary points of a region.

    The two cut points each split into a pair of markers joined through two
    new boundary edges running along the sides of the arc.  Within one
    boundary cycle of the region the cut splits it in two (the piece without
    the region's genus and other cycles becomes a new region); across two
    different cycles it merges them.  Boundary circles are renumbered
    canonically afterwards.
    """
    if arc.region not in d.regions:
        raise ValueError(f"no region {arc.region}")
    r = d.regions[arc.region]
    (ea, oa), (eb, ob) = arc.start, arc.end
    for eid in (ea, eb):
        if eid not in d.edges or d.edges[eid].curve != BD:
            raise ValueError(f"cut point must sit on a boundary edge, not {eid}")
        if not any(ref_edge(ref) == eid for cyc in r.cycles for ref in cyc):
            raise ValueError(
                f"boundary edge {eid} is not on region {arc.region}")
    if ea == eb and oa == ob:
        raise ValueError("cut points coincide")

    nv, ne, nr = _next_ids(d)
    new_vertices: list[Vertex] = []
    new_edges: list[Edge] = []

    def fresh_marker() -> int:
        nonlocal nv
        nv += 1
        new_vertices.append(Vertex(nv, MARKER))
        return nv

    def fresh_edge(tail: int, head: int) -> int:
        nonlocal ne
        ne += 1
        new_edges.append(Edge(ne, BD, 1, tail, head))  # index fixed later
        return ne

    # replacement sequences; cut j appears as the string marker ("cut", j).
    # Each cut edge splits at its cut points in offset order, each point
    # into a pair of markers, and the pieces run between them.
    cuts: dict[int, list[tuple[int, int]]] = {}
    for j, (eid, offset) in ((1, arc.start), (2, arc.end)):
        cuts.setdefault(eid, []).append((offset, j))
    replacements: dict[int, list] = {}
    for eid, points in cuts.items():
        e = d.edges[eid]
        ends = [e.tail, *(fresh_marker() for _ in range(2 * len(points))),
                e.head]
        pieces = [fresh_edge(t, h) for t, h in zip(ends[::2], ends[1::2])]
        body = [pieces[0]]
        for (_, j), piece in zip(sorted(points), pieces[1:]):
            body += [("cut", j), piece]
        replacements[eid] = body

    def substitute(cyc: tuple[int, ...]) -> list:
        out = []
        for ref in cyc:
            body = replacements.get(ref_edge(ref))
            if body is None:
                out.append(ref)
            elif ref > 0:
                out.extend(body)
            else:
                out.extend(-x if isinstance(x, int) else x
                           for x in reversed(body))
        return out

    rebuilt = [substitute(cyc) for cyc in r.cycles]
    marks = {}  # cut number -> (cycle index, position of the marker)
    for ci, cyc in enumerate(rebuilt):
        for pi, item in enumerate(cyc):
            if isinstance(item, tuple):
                marks[item[1]] = (ci, pi)

    edge_by_id = {e.id: e for e in list(d.edges.values()) + new_edges}

    def seg_ends(seg: list[int]) -> tuple[int, int]:
        first, last = seg[0], seg[-1]
        ef, el = edge_by_id[ref_edge(first)], edge_by_id[ref_edge(last)]
        start = ef.tail if first > 0 else ef.head
        stop = el.head if last > 0 else el.tail
        return start, stop

    def segment(cyc: list, start_pos: int, stop_pos: int) -> list[int]:
        # refs strictly between two marker positions, walking forward
        out = []
        i = (start_pos + 1) % len(cyc)
        while i != stop_pos:
            out.append(cyc[i])
            i = (i + 1) % len(cyc)
        return out

    (c1, g1), (c2, g2) = marks[1], marks[2]
    new_region_cycles: list[tuple[int, Region]] = []
    if c1 == c2:
        cyc = rebuilt[c1]
        seg1 = segment(cyc, g1, g2)  # runs from a1 to b2
        seg2 = segment(cyc, g2, g1)  # runs from a2 to b1
        a1, b2 = seg_ends(seg1)
        a2, b1 = seg_ends(seg2)
        delta1 = fresh_edge(b2, a1)
        delta2 = fresh_edge(b1, a2)
        cut_off = Region(nr + 1, 0, (tuple(seg1 + [delta1]),))
        rest_cycles = tuple(tuple(c) for i, c in enumerate(rebuilt) if i != c1)
        keeper = Region(r.id, r.genus,
                        (tuple(seg2 + [delta2]),) + rest_cycles)
        new_regions = [cut_off, keeper]
    else:
        cycA, cycB = rebuilt[c1], rebuilt[c2]
        segA = segment(cycA, g1, g1)  # all of cycle 1, from a1 to b1
        segB = segment(cycB, g2, g2)
        a1, b1 = seg_ends(segA)
        a2, b2 = seg_ends(segB)
        deltaA = fresh_edge(b1, a2)
        deltaB = fresh_edge(b2, a1)
        merged = tuple(segA + [deltaA] + segB + [deltaB])
        rest_cycles = tuple(tuple(c) for i, c in enumerate(rebuilt)
                            if i not in (c1, c2))
        new_regions = [Region(r.id, r.genus, (merged,) + rest_cycles)]

    vertices = list(d.vertices.values()) + new_vertices
    edges = [e for e in d.edges.values() if e.id not in (ea, eb)] + new_edges
    edges = _relabel_bd_circles(edges)
    regions = [x for x in d.regions.values() if x.id != r.id] + new_regions
    return Diagram(vertices, edges, regions,
                   name=f"{d.name}|cut" if d.name else None)


# -- curve-pair deletion ------------------------------------------------------


def delete_curve_pair(d: Diagram, alpha_index: int, beta_index: int) -> Diagram:
    """Remove one alpha circle and one beta circle, merging regions.

    Crossings that sat on exactly one removed circle become markers;
    crossings on both, and markers of the removed circles, disappear.
    Raises if the merged surface piece would close off (no boundary left).
    """
    dead = {e.id for e in d.edges.values()
            if (e.curve, e.index) in ((ALPHA, alpha_index), (BETA, beta_index))}
    if not any(e.curve == ALPHA and e.index == alpha_index
               for e in d.edges.values()):
        raise ValueError(f"no alpha circle {alpha_index}")
    if not any(e.curve == BETA and e.index == beta_index
               for e in d.edges.values()):
        raise ValueError(f"no beta circle {beta_index}")

    surviving_ends: dict[int, int] = {v: 0 for v in d.vertices}
    for e in d.edges.values():
        if e.id not in dead:
            surviving_ends[e.tail] += 1
            surviving_ends[e.head] += 1
    vertices = []
    removed_vertices = set()
    for v in d.vertices.values():
        n = surviving_ends[v.id]
        if n == 0:
            removed_vertices.add(v.id)
        elif n == 2:
            vertices.append(Vertex(v.id, MARKER))
        else:
            vertices.append(v)

    # merge regions across the deleted edges
    parent = {r: r for r in d.regions}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in dead:
        pos, neg = d.edge_sides[eid]
        a, b = find(pos), find(neg)
        if a != b:
            parent[a] = b

    # slot machinery: a slot is one signed reference in one region cycle
    slots = []
    succ = {}
    opposite = {}
    for r in d.regions.values():
        for ci, cyc in enumerate(r.cycles):
            for pi, ref in enumerate(cyc):
                s = (r.id, ci, pi)
                slots.append((s, ref))
                succ[s] = (r.id, ci, (pi + 1) % len(cyc))
                opposite[(ref_edge(ref), ref > 0)] = s
    ref_of = dict(slots)

    def rotate(cycle: list[int]) -> tuple[int, ...]:
        k = min(range(len(cycle)), key=lambda i: (ref_edge(cycle[i]), cycle[i] < 0))
        return tuple(cycle[k:] + cycle[:k])

    cycles_of: dict[int, list[tuple[int, ...]]] = {}
    visited = set()
    for s, ref in slots:
        if ref_edge(ref) in dead or s in visited:
            continue
        cycle = []
        cur = s
        while True:
            cycle.append(ref_of[cur])
            visited.add(cur)
            t = succ[cur]
            while ref_edge(ref_of[t]) in dead:
                tref = ref_of[t]
                t = succ[opposite[(ref_edge(tref), tref < 0)]]
            cur = t
            if cur == s:
                break
        cycles_of.setdefault(find(s[0]), []).append(rotate(cycle))

    members_of: dict[int, list[int]] = {}
    for rid in d.regions:
        members_of.setdefault(find(rid), []).append(rid)
    dead_edges_of: dict[int, int] = {}
    for eid in dead:
        dead_edges_of[find(d.edge_sides[eid][0])] = \
            dead_edges_of.get(find(d.edge_sides[eid][0]), 0) + 1
    dead_vertices_of: dict[int, int] = {}
    for vid in removed_vertices:
        e = next(e for e in d.edges.values() if vid in (e.tail, e.head))
        root = find(d.edge_sides[e.id][0])
        dead_vertices_of[root] = dead_vertices_of.get(root, 0) + 1

    regions = []
    for root, members in sorted(members_of.items()):
        cycles = sorted(cycles_of.get(root, []))
        if not cycles:
            raise ValueError(
                f"deleting the pair would close off regions {sorted(members)}")
        chi = (dead_vertices_of.get(root, 0) - dead_edges_of.get(root, 0)
               + sum(d.regions[rid].euler() for rid in members))
        genus2 = 2 - chi - len(cycles)
        if genus2 < 0 or genus2 % 2:
            raise ValueError(
                f"merged region around {sorted(members)} has no consistent "
                f"genus (Euler characteristic {chi}, {len(cycles)} cycles)")
        regions.append(Region(min(members), genus2 // 2, tuple(cycles)))

    edges = [e for e in d.edges.values() if e.id not in dead]
    name = f"{d.name}-a{alpha_index}b{beta_index}" if d.name else None
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
    ip = {c: perm({e.index for e in d.edges.values() if e.curve == c})
          for c in (ALPHA, BETA, BD)}
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
