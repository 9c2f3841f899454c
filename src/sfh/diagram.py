"""Core data model: balanced sutured Heegaard diagrams as cell complexes.

A diagram is a compact surface with boundary presented combinatorially:
vertices (curve crossings and markers), directed labeled edges (segments of
alpha circles, beta circles, and boundary circles), and regions (the
complementary faces, each a surface of some genus with one or more boundary
cycles of signed edge references).  Region cycles keep the region on the
left, so an interior edge is traversed once forwards and once backwards
across all regions, while a boundary edge is traversed exactly once.

Validation walks the region cycles once, reading one table that gives each
signed edge reference the vertex and edge end it arrives by and the ones
it leaves by.  The walk records the region on each reference's side, and
edge use is checked on that record: each reference once, an interior edge
both ways, a boundary edge one way; references are only counted to word a
failure.  A diagram that passes keeps what that walk found: the corners at
each vertex (``corners_by_vertex``), the two sides of each edge
(``edge_sides``) and the regions that miss the boundary
(``interior_regions``).  Later stages read those tables and walk no cycle
again.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class Corner(NamedTuple):
    """One passage of a region boundary through a vertex."""

    vertex: int
    region: int
    end_in: End
    end_out: End


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
            if (type(r) is not Region or type(r.cycles) is not tuple
                    or any(type(c) is not tuple for c in r.cycles)):
                r = Region(r.id, r.genus, tuple(tuple(c) for c in r.cycles))
            self.regions[r.id] = r

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

    def euler_characteristic(self) -> int:
        return (len(self.vertices) - len(self.edges)
                + sum(r.euler() for r in self.regions.values()))

    # -- validation ------------------------------------------------------

    def validation_errors(self) -> list[str]:
        """All invariant violations, as human-readable messages.

        The checks run in stages, and a stage with violations ends the
        check: ids, kinds and references; vertex incidence; circles; region
        cycles; corners.  The cycle stage is the one walk over the region
        cycles, and it also builds the corner table, each edge's two sides
        and each region's boundary contact.  A diagram that passes keeps
        them as ``corners_by_vertex``, ``edge_sides`` and
        ``interior_regions``.
        """
        errs: list[str] = []
        edges = self.edges
        for v in self.vertices.values():
            if v.id <= 0:
                errs.append(f"vertex id {v.id} is not positive")
            if v.kind not in VERTEX_KINDS:
                errs.append(f"vertex {v.id} has unknown kind {v.kind!r}")
        for e in edges.values():
            if e.id <= 0:
                errs.append(f"edge id {e.id} is not positive")
            if e.curve not in CURVE_KINDS:
                errs.append(f"edge {e.id} has unknown curve kind {e.curve!r}")
            if e.index <= 0:
                errs.append(f"edge {e.id} has non-positive circle index {e.index}")
            for endpoint in (e.tail, e.head):
                if endpoint not in self.vertices:
                    errs.append(f"edge {e.id} references missing vertex {endpoint}")
        cycles = [cyc for r in self.regions.values() for cyc in r.cycles]
        refs = set(map(abs, itertools.chain.from_iterable(cycles)))
        bad_refs = 0 in refs or not refs <= edges.keys()
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
                for ref in cyc if bad_refs else ():
                    if ref == 0 or abs(ref) not in edges:
                        errs.append(f"region {r.id} references missing edge {ref}")
        if errs:
            return errs  # structure is too broken for the relational checks

        # boundary edges live on the suture circles, whose only vertices
        # are markers; crossings are exactly the alpha/beta intersections
        for e in edges.values():
            if e.curve == BD:
                for endpoint in (e.tail, e.head):
                    if self.vertices[endpoint].kind != MARKER:
                        errs.append(
                            f"boundary edge {e.id} touches non-marker vertex {endpoint}")

        # vertex incidence degrees
        ends_at: dict[int, list[tuple[str, int, str, int]]] = {v: [] for v in self.vertices}
        for e in edges.values():
            if e.tail in ends_at:
                ends_at[e.tail].append((e.curve, e.index, "T", e.id))
            if e.head in ends_at:
                ends_at[e.head].append((e.curve, e.index, "H", e.id))
        for v in self.vertices.values():
            ends = ends_at[v.id]
            if v.kind == CROSSING:
                # sorted, a crossing's ends are alpha H, alpha T, beta H,
                # beta T, each pair on one circle
                ok = len(ends) == 4
                if ok:
                    a1, a2, b1, b2 = sorted(ends)
                    ok = (a1[0] == a2[0] == ALPHA and b1[0] == b2[0] == BETA
                          and a1[1] == a2[1] and b1[1] == b2[1]
                          and a1[2] == b1[2] == "H" and a2[2] == b2[2] == "T")
                if not ok:
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

        # each (curve, index) pair is one closed circle.  Incidence has
        # passed, so each vertex of a circle has one of its edges arriving
        # and one leaving: the edges leaving their tails are all of them,
        # and following them from any edge comes back round to it
        groups: dict[tuple[str, int], dict[int, Edge]] = {}
        for e in edges.values():
            groups.setdefault((e.curve, e.index), {})[e.tail] = e
        for (curve, index), out_at in sorted(groups.items()):
            start = cur = next(iter(out_at.values()))
            steps = 1
            while (cur := out_at[cur.head]) is not start:
                steps += 1
            if steps != len(out_at):
                errs.append(f"circle {curve}({index}) is not a single closed loop")
        if errs:
            return errs

        # the one walk over the region cycles: each reference must start
        # where the one before it ends, and the pair makes a corner there.
        # A signed reference arrives at its end vertex by one edge end and
        # leaves its start vertex by the other: route[ref] is (arrive vertex,
        # arrive end, leave vertex, leave end)
        route: dict[int, tuple[int, End, int, End]] = {}
        for e in edges.values():
            i = e.id
            head, tail = (i, "H"), (i, "T")
            route[i] = (e.head, head, e.tail, tail)
            route[-i] = (e.tail, tail, e.head, head)
        corner = Corner._make
        by_vertex: dict[int, list[Corner]] = {v: [] for v in self.vertices}
        side: dict[int, int] = {}  # signed reference -> its region
        for r in self.regions.values():
            rid = r.id
            for cyc in r.cycles:
                side.update(dict.fromkeys(cyc, rid))
                ref = cyc[0]
                v, end_in, _, _ = route[ref]
                for nxt in cyc[1:] + cyc[:1]:
                    at = route[nxt]
                    if v != at[2]:
                        errs.append(
                            f"region {rid}: cycle breaks between refs {ref} and {nxt}")
                    by_vertex[v].append(corner((v, rid, end_in, at[3])))
                    ref = nxt
                    v, end_in, _, _ = at
        # each signed reference is used at most once, an interior edge
        # both ways and a boundary edge one way; the counts word a failure
        if len(side) != sum(map(len, cycles)) or any(
                (e.id in side) + (-e.id in side) != (1 if e.curve == BD else 2)
                for e in edges.values()):
            use = Counter(itertools.chain.from_iterable(cycles))
            for e in edges.values():
                p, mn = use[e.id], use[-e.id]
                if e.curve == BD:
                    if p + mn != 1:
                        errs.append(f"boundary edge {e.id} used {p + mn} "
                                    "times; want exactly 1")
                elif (p, mn) != (1, 1):
                    errs.append(f"interior edge {e.id} used +{p}/-{mn} "
                                "times; want once each way")
        if errs:
            return errs

        # local surface structure: corners at each vertex
        curve_of = {i: e.curve for i, e in edges.items()}
        for v in self.vertices.values():
            cs = by_vertex[v.id]
            if v.kind == MARKER:
                ends = {(x[3], x[2]) for x in ends_at[v.id]}
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
                for _, _, end_in, end_out in cs:
                    # incidence made every end here alpha or beta
                    if curve_of[end_in[0]] == curve_of[end_out[0]]:
                        errs.append(
                            f"crossing {v.id}: corner joins two ends of the same curve")
                        ok = False
                        break
                    if end_in in succ:
                        errs.append(f"crossing {v.id}: edge end reused by two corners")
                        ok = False
                        break
                    succ[end_in] = end_out
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
        if errs:
            return errs

        # a boundary edge is used once, by the one region it touches
        touching = {side.get(e.id, side.get(-e.id))
                    for e in edges.values() if e.curve == BD}
        self.corners_by_vertex = {v: tuple(cs) for v, cs in by_vertex.items()}
        self.edge_sides = {e: (side.get(e), side.get(-e)) for e in edges}
        self.interior_regions = sorted(r for r in self.regions if r not in touching)
        return errs

    # set once the check passes (a failing diagram raises on every call); a
    # class default, as a cached_property's __dict__ lookup slows the check
    _valid = False

    def validate(self) -> None:
        """Raise InvalidDiagramError with every message of
        ``validation_errors``, or keep the tables its walk built; a diagram
        is checked once."""
        if self._valid:
            return
        errs = self.validation_errors()
        if errs:
            raise InvalidDiagramError("; ".join(errs))
        self._valid = True

    # -- derived structure (valid diagrams only) -------------------------
    #
    # corners_by_vertex, edge_sides and interior_regions are left behind by
    # the check; read on a diagram not yet checked, they check it first.

    def _checked(self, table: str):
        self.validate()
        return self.__dict__[table]

    @cached_property
    def corners_by_vertex(self) -> dict[int, tuple[Corner, ...]]:
        """vertex id -> the corners at it, in region and cycle order."""
        return self._checked("corners_by_vertex")

    @cached_property
    def edge_sides(self) -> dict[int, tuple[int | None, int | None]]:
        """edge id -> (region traversing +e, region traversing -e)."""
        return self._checked("edge_sides")

    @cached_property
    def crossing_curves(self) -> dict[int, tuple[int, int]]:
        """crossing id -> (alpha index, beta index) meeting there."""
        seen: dict[int, dict[str, int]] = {v: {} for v in self.crossings}
        for e in self.edges.values():
            for v in (e.tail, e.head):
                if v in seen:
                    seen[v][e.curve] = e.index
        return {v: (c.get(ALPHA), c.get(BETA)) for v, c in seen.items()}

    @cached_property
    def interior_regions(self) -> list[int]:
        """Regions that do not touch the boundary of the surface."""
        return self._checked("interior_regions")

    @cached_property
    def defects(self):
        """The diagram's ``sfh.domains.DefectSystem``: the defect matrix,
        its Hermite factorization, periodic basis and admissibility verdict."""
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
    inner = set(d.interior_regions)
    for cut, kept in ((ALPHA, BETA), (BETA, ALPHA)):
        for comp in _complement_components(d, kept):
            if comp <= inner:
                problems.append(
                    f"component {sorted(comp)} of the complement of the "
                    f"{cut} circles misses the boundary")
    return problems


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
    if not alphas:
        return [()]
    # depth-first: stack[i] iterates alpha i's crossings, and picks holds
    # the crossing and beta circle chosen for each alpha before it
    out = []
    picks: list[tuple[int, int]] = []
    used: set[int] = set()
    stack = [iter(by_alpha[alphas[0]])]
    while stack:
        for v, bi in stack[-1]:
            if bi not in used:
                break
        else:
            stack.pop()
            if picks:
                used.remove(picks.pop()[1])
            continue
        if len(stack) == len(alphas):
            out.append(tuple(sorted([p for p, _ in picks] + [v])))
            continue
        picks.append((v, bi))
        used.add(bi)
        stack.append(iter(by_alpha[alphas[len(stack)]]))
    return sorted(out)
