"""Product-arc cuts (acceptance criterion 8, product-decomposition invariance)
and curve-pair deletion (10, admissibility of subdiagrams): test-only moves."""
from dataclasses import dataclass

from sfh.diagram import ALPHA, BD, BETA, MARKER, Diagram, Edge, Region, Vertex
from sfh.moves import _next_ids


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
        if not any(abs(ref) == eid for cyc in r.cycles for ref in cyc):
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
            body = replacements.get(abs(ref))
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
        ef, el = edge_by_id[abs(first)], edge_by_id[abs(last)]
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
                opposite[(abs(ref), ref > 0)] = s
    ref_of = dict(slots)

    def rotate(cycle: list[int]) -> tuple[int, ...]:
        k = min(range(len(cycle)), key=lambda i: (abs(cycle[i]), cycle[i] < 0))
        return tuple(cycle[k:] + cycle[:k])

    cycles_of: dict[int, list[tuple[int, ...]]] = {}
    visited = set()
    for s, ref in slots:
        if abs(ref) in dead or s in visited:
            continue
        cycle = []
        cur = s
        while True:
            cycle.append(ref_of[cur])
            visited.add(cur)
            t = succ[cur]
            while abs(ref_of[t]) in dead:
                tref = ref_of[t]
                t = succ[opposite[(abs(tref), tref < 0)]]
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
