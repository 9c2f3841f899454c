"""Core data model: balanced sutured Heegaard diagrams as cell complexes.

A diagram is a compact surface with boundary presented combinatorially:
vertices (curve crossings and markers), directed labeled edges (segments of
alpha circles, beta circles, and boundary circles), and regions (the
complementary faces, each a surface of some genus with one or more boundary
cycles of signed edge references).  Region cycles keep the region on the
left, so an interior edge is traversed once forwards and once backwards
across all regions, while a boundary edge is traversed exactly once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

ALPHA = "alpha"
BETA = "beta"
BD = "bd"
CROSSING = "crossing"
MARKER = "marker"

CURVE_KINDS = (ALPHA, BETA, BD)
VERTEX_KINDS = (CROSSING, MARKER)


class InvalidDiagramError(ValueError):
    """A diagram failed one of the cell-complex invariants."""


@dataclass(frozen=True)
class Vertex:
    id: int
    kind: str


@dataclass(frozen=True)
class Edge:
    id: int
    curve: str
    index: int
    tail: int
    head: int


@dataclass(frozen=True)
class Region:
    id: int
    genus: int
    cycles: tuple[tuple[int, ...], ...]

    def euler(self) -> int:
        return 2 - 2 * self.genus - len(self.cycles)


# An edge end is (edge id, "T"|"H").  Loops contribute both ends at one
# vertex, so ends rather than edges are the primitive incidence objects.
End = tuple[int, str]


@dataclass(frozen=True)
class Corner:
    """One passage of a region boundary through a vertex."""

    vertex: int
    region: int
    end_in: End
    end_out: End


def ref_edge(ref: int) -> int:
    return abs(ref)


def ref_start(e: Edge, ref: int) -> int:
    return e.tail if ref > 0 else e.head


def ref_end(e: Edge, ref: int) -> int:
    return e.head if ref > 0 else e.tail


class Diagram:
    """Immutable by convention: moves build new diagrams, never edit one."""

    def __init__(self, vertices, edges, regions, name: str | None = None):
        self.vertices: dict[int, Vertex] = {}
        self.edges: dict[int, Edge] = {}
        self.regions: dict[int, Region] = {}
        self.name = name
        for v in vertices:
            if v.id in self.vertices:
                raise InvalidDiagramError(f"duplicate vertex id {v.id}")
            self.vertices[v.id] = v
        for e in edges:
            if e.id in self.edges:
                raise InvalidDiagramError(f"duplicate edge id {e.id}")
            self.edges[e.id] = e
        for r in regions:
            if r.id in self.regions:
                raise InvalidDiagramError(f"duplicate region id {r.id}")
            self.regions[r.id] = Region(r.id, r.genus, tuple(tuple(c) for c in r.cycles))

    # -- simple accessors ------------------------------------------------

    @cached_property
    def crossings(self) -> list[int]:
        return sorted(v.id for v in self.vertices.values() if v.kind == CROSSING)

    @cached_property
    def markers(self) -> list[int]:
        return sorted(v.id for v in self.vertices.values() if v.kind == MARKER)

    def curve_indices(self, curve: str) -> list[int]:
        return sorted({e.index for e in self.edges.values() if e.curve == curve})

    @cached_property
    def alpha_count(self) -> int:
        return len(self.curve_indices(ALPHA))

    @cached_property
    def beta_count(self) -> int:
        return len(self.curve_indices(BETA))

    @cached_property
    def region_ids(self) -> list[int]:
        return sorted(self.regions)

    def circle_edges(self, curve: str, index: int) -> list[int]:
        return sorted(e.id for e in self.edges.values()
                      if e.curve == curve and e.index == index)

    def euler_characteristic(self) -> int:
        return (len(self.vertices) - len(self.edges)
                + sum(r.euler() for r in self.regions.values()))

    # -- validation ------------------------------------------------------

    def validation_errors(self) -> list[str]:
        """All invariant violations, as human-readable messages."""
        errs: list[str] = []
        for v in self.vertices.values():
            if v.id <= 0:
                errs.append(f"vertex id {v.id} is not positive")
            if v.kind not in VERTEX_KINDS:
                errs.append(f"vertex {v.id} has unknown kind {v.kind!r}")
        for e in self.edges.values():
            if e.id <= 0:
                errs.append(f"edge id {e.id} is not positive")
            if e.curve not in CURVE_KINDS:
                errs.append(f"edge {e.id} has unknown curve kind {e.curve!r}")
            if e.index <= 0:
                errs.append(f"edge {e.id} has non-positive circle index {e.index}")
            for endpoint in (e.tail, e.head):
                if endpoint not in self.vertices:
                    errs.append(f"edge {e.id} references missing vertex {endpoint}")
        for r in self.regions.values():
            if r.id <= 0:
                errs.append(f"region id {r.id} is not positive")
            if r.genus < 0:
                errs.append(f"region {r.id} has negative genus")
            if not r.cycles:
                errs.append(f"region {r.id} has no boundary cycles")
            for cyc in r.cycles:
                if not cyc:
                    errs.append(f"region {r.id} has an empty boundary cycle")
                for ref in cyc:
                    if ref == 0 or ref_edge(ref) not in self.edges:
                        errs.append(f"region {r.id} references missing edge {ref}")
        if errs:
            return errs  # structure is too broken for the relational checks

        # boundary edges live on the suture circles, whose only vertices
        # are markers; crossings are exactly the alpha/beta intersections
        for e in self.edges.values():
            if e.curve == BD:
                for endpoint in (e.tail, e.head):
                    if self.vertices[endpoint].kind != MARKER:
                        errs.append(
                            f"boundary edge {e.id} touches non-marker vertex {endpoint}")

        # vertex incidence degrees
        ends_at: dict[int, list[tuple[str, int, str, int]]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            if e.tail in ends_at:
                ends_at[e.tail].append((e.curve, e.index, "T", e.id))
            if e.head in ends_at:
                ends_at[e.head].append((e.curve, e.index, "H", e.id))
        for v in self.vertices.values():
            ends = ends_at[v.id]
            if v.kind == CROSSING:
                al = [x for x in ends if x[0] == ALPHA]
                be = [x for x in ends if x[0] == BETA]
                other = [x for x in ends if x[0] == BD]
                if (len(al) != 2 or len(be) != 2 or other
                        or sorted(x[2] for x in al) != ["H", "T"]
                        or sorted(x[2] for x in be) != ["H", "T"]
                        or len({x[1] for x in al}) != 1
                        or len({x[1] for x in be}) != 1):
                    errs.append(
                        f"crossing {v.id} must carry one alpha circle through it "
                        f"and one beta circle through it; found ends {sorted(ends)}")
            else:
                if (len(ends) != 2
                        or sorted(x[2] for x in ends) != ["H", "T"]
                        or len({(x[0], x[1]) for x in ends}) != 1):
                    errs.append(
                        f"marker {v.id} must carry exactly one circle through it; "
                        f"found ends {sorted(ends)}")
        if errs:
            return errs

        # each (curve, index) pair is one closed circle
        groups: dict[tuple[str, int], list[Edge]] = {}
        for e in self.edges.values():
            groups.setdefault((e.curve, e.index), []).append(e)
        for (curve, index), group in sorted(groups.items()):
            out_at = {}
            for e in group:
                if e.tail in out_at:
                    errs.append(f"circle {curve}({index}) branches at vertex {e.tail}")
                out_at[e.tail] = e
            heads = sorted(e.head for e in group)
            if heads != sorted(e.tail for e in group):
                errs.append(f"circle {curve}({index}) does not close up")
                continue
            start = group[0]
            seen = {start.id}
            cur = start
            while True:
                nxt = out_at.get(cur.head)
                if nxt is None or (nxt.id in seen and nxt.id != start.id):
                    break
                if nxt.id == start.id:
                    break
                seen.add(nxt.id)
                cur = nxt
            if len(seen) != len(group):
                errs.append(f"circle {curve}({index}) is not a single closed loop")
        if errs:
            return errs

        # cycle connectivity and global edge usage
        plus_use: dict[int, int] = {e: 0 for e in self.edges}
        minus_use: dict[int, int] = {e: 0 for e in self.edges}
        for r in self.regions.values():
            for cyc in r.cycles:
                for pos, ref in enumerate(cyc):
                    e = self.edges[ref_edge(ref)]
                    nxt = cyc[(pos + 1) % len(cyc)]
                    en = self.edges[ref_edge(nxt)]
                    if ref_end(e, ref) != ref_start(en, nxt):
                        errs.append(
                            f"region {r.id}: cycle breaks between refs {ref} and {nxt}")
                    if ref > 0:
                        plus_use[e.id] += 1
                    else:
                        minus_use[e.id] += 1
        for e in self.edges.values():
            p, mn = plus_use[e.id], minus_use[e.id]
            if e.curve == BD:
                if p + mn != 1:
                    errs.append(
                        f"boundary edge {e.id} used {p + mn} times; want exactly 1")
            elif (p, mn) != (1, 1):
                errs.append(
                    f"interior edge {e.id} used +{p}/-{mn} times; want once each way")
        if errs:
            return errs

        # local surface structure: corners at each vertex
        corners = self._corners()
        by_vertex: dict[int, list[Corner]] = {v: [] for v in self.vertices}
        for c in corners:
            by_vertex[c.vertex].append(c)
        for v in self.vertices.values():
            cs = by_vertex[v.id]
            ends = {(x[3], x[2]) for x in ends_at[v.id]}
            if v.kind == MARKER:
                on_bd = next(iter(ends_at[v.id]))[0] == BD
                want = 1 if on_bd else 2
                if len(cs) != want:
                    errs.append(f"marker {v.id} has {len(cs)} region corners; want {want}")
                for c in cs:
                    if {c.end_in, c.end_out} != ends:
                        errs.append(
                            f"marker {v.id}: corner does not pass straight through")
            else:
                if len(cs) != 4:
                    errs.append(f"crossing {v.id} has {len(cs)} region corners; want 4")
                    continue
                # corners must chain into a single alternating quadrant cycle
                succ = {}
                ok = True
                for c in cs:
                    a_end = c.end_in if self.edges[c.end_in[0]].curve == ALPHA else c.end_out
                    b_end = c.end_in if self.edges[c.end_in[0]].curve == BETA else c.end_out
                    if (self.edges[a_end[0]].curve != ALPHA
                            or self.edges[b_end[0]].curve != BETA):
                        errs.append(
                            f"crossing {v.id}: corner joins two ends of the same curve")
                        ok = False
                        break
                    if c.end_in in succ:
                        errs.append(f"crossing {v.id}: edge end reused by two corners")
                        ok = False
                        break
                    succ[c.end_in] = c.end_out
                if not ok:
                    continue
                # first return to the start must happen on the fourth step:
                # an early return means the link of the vertex is two circles
                # (a pinch point), not a disk neighborhood
                start = cs[0].end_in
                cur = start
                steps = 0
                while True:
                    cur = succ.get(cur)
                    steps += 1
                    if cur is None or cur == start or steps == 4:
                        break
                if not (steps == 4 and cur == start):
                    errs.append(
                        f"crossing {v.id}: quadrants do not close into a single cycle")
        return errs

    def validate(self) -> None:
        errs = self.validation_errors()
        if errs:
            raise InvalidDiagramError("; ".join(errs))

    # -- derived structure (valid diagrams only) -------------------------

    def _corners(self) -> list[Corner]:
        out = []
        for r in self.regions.values():
            for cyc in r.cycles:
                for pos, ref in enumerate(cyc):
                    e = self.edges[ref_edge(ref)]
                    nxt = cyc[(pos + 1) % len(cyc)]
                    en = self.edges[ref_edge(nxt)]
                    v = ref_end(e, ref)
                    end_in: End = (e.id, "H" if ref > 0 else "T")
                    end_out: End = (en.id, "T" if nxt > 0 else "H")
                    out.append(Corner(v, r.id, end_in, end_out))
        return out

    @cached_property
    def corners_by_vertex(self) -> dict[int, tuple[Corner, ...]]:
        out: dict[int, list[Corner]] = {v: [] for v in self.vertices}
        for c in self._corners():
            out[c.vertex].append(c)
        return {v: tuple(cs) for v, cs in out.items()}

    @cached_property
    def quadrants(self) -> dict[int, tuple[Corner, ...]]:
        """The four corners at each crossing, in cyclic quadrant order."""
        out = {}
        for v in self.crossings:
            cs = self.corners_by_vertex[v]
            succ = {c.end_in: c for c in cs}
            ordered = [cs[0]]
            while len(ordered) < 4:
                ordered.append(succ[ordered[-1].end_out])
            out[v] = tuple(ordered)
        return out

    @cached_property
    def edge_sides(self) -> dict[int, tuple[int | None, int | None]]:
        """edge id -> (region traversing +e, region traversing -e)."""
        pos: dict[int, int | None] = {e: None for e in self.edges}
        neg: dict[int, int | None] = {e: None for e in self.edges}
        for r in self.regions.values():
            for cyc in r.cycles:
                for ref in cyc:
                    if ref > 0:
                        pos[ref] = r.id
                    else:
                        neg[-ref] = r.id
        return {e: (pos[e], neg[e]) for e in self.edges}

    @cached_property
    def circle_order(self) -> dict[tuple[str, int], list[int]]:
        """Each circle's edges in traversal order (head feeds next tail)."""
        out = {}
        groups: dict[tuple[str, int], list[Edge]] = {}
        for e in self.edges.values():
            groups.setdefault((e.curve, e.index), []).append(e)
        for key, group in groups.items():
            out_at = {e.tail: e for e in group}
            start = min(group, key=lambda e: e.id)
            order = [start.id]
            cur = start
            while True:
                cur = out_at[cur.head]
                if cur.id == start.id:
                    break
                order.append(cur.id)
            out[key] = order
        return out

    @cached_property
    def crossing_curves(self) -> dict[int, tuple[int, int]]:
        """crossing id -> (alpha index, beta index) meeting there."""
        out = {}
        for v in self.crossings:
            al = be = None
            for e in self.edges.values():
                if v in (e.tail, e.head):
                    if e.curve == ALPHA:
                        al = e.index
                    elif e.curve == BETA:
                        be = e.index
            out[v] = (al, be)
        return out

    @cached_property
    def interior_regions(self) -> list[int]:
        """Regions that do not touch the boundary of the surface."""
        out = []
        for r in self.regions.values():
            if all(self.edges[ref_edge(ref)].curve != BD
                   for cyc in r.cycles for ref in cyc):
                out.append(r.id)
        return sorted(out)

    @cached_property
    def defects(self):
        """The diagram's ``sfh.domains.DefectSystem``: the defect matrix,
        its Smith factorization, periodic basis and admissibility verdict."""
        from .domains import DefectSystem  # domains builds on this module
        return DefectSystem(self)

    @cached_property
    def crossing_corner_count(self) -> dict[int, int]:
        """region id -> number of its corners sitting at crossings."""
        out = {r: 0 for r in self.regions}
        for v in self.crossings:
            for c in self.corners_by_vertex[v]:
                out[c.region] += 1
        return out


# -- balance ---------------------------------------------------------------


class NotBalancedError(ValueError):
    """Raised by computations that require a balanced diagram."""

    def __init__(self, problems: list[str]):
        super().__init__("diagram is not balanced: " + "; ".join(problems))
        self.problems = problems


def _complement_components(d: Diagram, kept_curve: str) -> list[set[int]]:
    # components of the surface cut along the *other* interior curve system:
    # regions glue across edges of kept_curve and stay separated along cuts
    parent = {r: r for r in d.regions}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in d.edges.values():
        if e.curve != kept_curve:
            continue
        p, n = d.edge_sides[e.id]
        if p is not None and n is not None:
            a, b = find(p), find(n)
            if a != b:
                parent[a] = b
    comps: dict[int, set[int]] = {}
    for r in d.regions:
        comps.setdefault(find(r), set()).add(r)
    return list(comps.values())


def balance_report(d: Diagram) -> list[str]:
    """Why the diagram is not balanced; empty when it is."""
    problems = []
    if d.alpha_count != d.beta_count:
        problems.append(
            f"{d.alpha_count} alpha circles vs {d.beta_count} beta circles")
    touches_bd = {
        r.id: any(d.edges[ref_edge(ref)].curve == BD
                  for cyc in r.cycles for ref in cyc)
        for r in d.regions.values()
    }
    for cut, kept in ((ALPHA, BETA), (BETA, ALPHA)):
        for comp in _complement_components(d, kept):
            if not any(touches_bd[r] for r in comp):
                problems.append(
                    f"component {sorted(comp)} of the complement of the "
                    f"{cut} circles misses the boundary")
    return problems


def is_balanced(d: Diagram) -> bool:
    return not balance_report(d)


# -- generators --------------------------------------------------------------

Generator = tuple[int, ...]


def enumerate_generators(d: Diagram) -> list[Generator]:
    """All tuples of crossings pairing each alpha circle with one beta circle.

    A generator uses every alpha index exactly once and every beta index
    exactly once.  Returned sorted, each as a sorted tuple of crossing ids.
    """
    alphas = d.curve_indices(ALPHA)
    betas = set(d.curve_indices(BETA))
    if len(alphas) != len(betas):
        return []
    by_alpha: dict[int, list[tuple[int, int]]] = {a: [] for a in alphas}
    for v, (ai, bi) in d.crossing_curves.items():
        by_alpha[ai].append((v, bi))
    out = []

    def extend(i: int, used_betas: set[int], acc: list[int]):
        if i == len(alphas):
            out.append(tuple(sorted(acc)))
            return
        for v, bi in by_alpha[alphas[i]]:
            if bi not in used_betas:
                used_betas.add(bi)
                acc.append(v)
                extend(i + 1, used_betas, acc)
                acc.pop()
                used_betas.remove(bi)

    extend(0, set(), [])
    return sorted(out)
