"""Homology of the GF(2) complex built from rigid disc counts.

Pipeline: validate, check balance, check admissibility, check that every
interior region is a bigon or a square (the shape that makes disc counts
purely combinatorial), then count.  The differential sends a generator to
the mod-2 sum of generators reachable by an index-1 nonnegative domain that
passes the rigidity test below.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import Diagram, Generator, NotBalancedError, balance_report
from .domains import (Domain, h2_rank, positive_connecting_domains,
                      require_admissible)
from .spinc import (SpincClass, grading_modulus, maslov_index,
                    relative_gradings, spinc_partition)


class NotNiceError(ValueError):
    """An interior region is not a bigon or a square."""


def niceness_report(d: Diagram) -> list[str]:
    problems = []
    for rid in d.interior_regions:
        r = d.regions[rid]
        if r.genus > 0:
            problems.append(f"interior region {rid} has genus {r.genus}")
        if len(r.cycles) != 1:
            problems.append(
                f"interior region {rid} has {len(r.cycles)} boundary cycles")
        corners = d.crossing_corner_count[rid]
        if corners not in (2, 4):
            problems.append(
                f"interior region {rid} has {corners} corners; want 2 or 4")
    return problems


def is_nice(d: Diagram) -> bool:
    return not niceness_report(d)


def require_nice(d: Diagram) -> None:
    problems = niceness_report(d)
    if problems:
        raise NotNiceError("; ".join(problems))


# -- rigid disc counting ------------------------------------------------------


def _support_is_disc(d: Diagram, support: set[int]) -> bool:
    # connected and Euler characteristic 1, computed on the closed support
    edges = set()
    adj: dict[int, set[int]] = {r: set() for r in support}
    for eid, (pos, neg) in d.edge_sides.items():
        p_in = pos in support
        n_in = neg in support
        if p_in or n_in:
            edges.add(eid)
        if p_in and n_in and pos != neg:
            adj[pos].add(neg)
            adj[neg].add(pos)
    seen = set()
    stack = [next(iter(support))]
    while stack:
        r = stack.pop()
        if r in seen:
            continue
        seen.add(r)
        stack.extend(adj[r] - seen)
    if seen != support:
        return False
    verts = set()
    for eid in edges:
        e = d.edges[eid]
        verts.add(e.tail)
        verts.add(e.head)
    chi = len(verts) - len(edges) + sum(d.regions[r].euler() for r in support)
    return chi == 1


def _rigid(d: Diagram, dom: Domain, x: Generator, y: Generator) -> int:
    if any(c not in (0, 1) for c in dom.coeffs):
        return 0
    xs, ys = set(x), set(y)
    moved_out = xs - ys
    moved_in = ys - xs
    if len(moved_out) != len(moved_in) or len(moved_out) not in (1, 2):
        return 0
    support = {r for r, c in zip(d.interior_regions, dom.coeffs) if c}
    if not support or not _support_is_disc(d, support):
        return 0
    for v in d.crossings:
        quads = d.quadrants[v]
        occ = [1 if c.region in support else 0 for c in quads]
        total = sum(occ)
        if v in moved_out or v in moved_in:
            if total != 1:
                return 0
        elif v in xs:  # stationary point of both generators
            if total != 0:
                return 0
        else:
            if total == 2:
                # the two occupied quadrants must share a curve ray,
                # i.e. be cyclically adjacent in the quadrant cycle
                pair_ok = any(occ[i] and occ[(i + 1) % 4] for i in range(4))
                if not pair_ok:
                    return 0
            elif total not in (0, 4):
                return 0
    return 1


# -- the complex --------------------------------------------------------------


def boundary_matrix(d: Diagram, members: tuple[Generator, ...]) -> list[int]:
    """GF(2) differential on one class: row i is a bitmask, bit j set when
    generator j appears in the boundary of generator i."""
    rows = []
    for x in members:
        row = 0
        for j, y in enumerate(members):
            if x == y:
                continue
            count = 0
            for dom in positive_connecting_domains(d, x, y):
                if maslov_index(d, dom, x, y) == 1:
                    count += _rigid(d, dom, x, y)
            if count % 2:
                row |= 1 << j
        rows.append(row)
    return rows


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def verify_d_squared(d: Diagram, members: tuple[Generator, ...],
                     rows: list[int] | None = None) -> None:
    """Raise with diagnostics if the differential does not square to zero."""
    if rows is None:
        rows = boundary_matrix(d, members)
    n = len(members)
    for i in range(n):
        acc = 0
        for j in range(n):
            if rows[i] >> j & 1:
                acc ^= rows[j]
        if acc:
            targets = [members[j] for j in range(n) if acc >> j & 1]
            lines = [f"d^2 is nonzero from {members[i]} to {targets}"]
            for z in targets:
                for dom in positive_connecting_domains(d, members[i], z):
                    if maslov_index(d, dom, members[i], z) == 2:
                        lines.append(f"  index-2 domain: {dom.describe()}")
            raise RuntimeError("; ".join(lines))


@dataclass(frozen=True)
class ClassHomology:
    id: str
    members: tuple[Generator, ...]
    modulus: int
    gradings: dict[Generator, int] = field(compare=False)
    ranks: dict[int, int] = field(compare=False)

    @property
    def total(self) -> int:
        return sum(self.ranks.values())


@dataclass(frozen=True)
class SFHResult:
    diagram_name: str | None
    generator_count: int
    classes: tuple[ClassHomology, ...]
    periodic_rank: int = 0

    @property
    def total_rank(self) -> int:
        return sum(c.total for c in self.classes)

    def signature(self) -> str:
        """Canonical one-line summary, stable under relabeling.

        Class ids and the per-class grading anchor both depend on vertex
        ids, so the signature drops ids and shifts each class's gradings to
        start at zero before sorting.
        """
        parts = []
        for c in self.classes:
            nz = {g: r for g, r in c.ranks.items() if r}
            if not nz:
                parts.append(f"d {c.modulus} ranks 0")
                continue
            if c.modulus:
                items = min(
                    tuple(sorted(((g - s) % c.modulus, r) for g, r in nz.items()))
                    for s in range(c.modulus))
            else:
                base = min(nz)
                items = tuple(sorted((g - base, r) for g, r in nz.items()))
            body = ",".join(f"{g}:{r}" for g, r in items)
            parts.append(f"d {c.modulus} ranks {body}")
        parts.sort()
        parts.append(f"total {self.total_rank}")
        return "; ".join(parts)

    def render_lines(self) -> list[str]:
        lines = []
        for c in self.classes:
            ranks = ",".join(f"{g}:{r}" for g, r in sorted(c.ranks.items()) if r)
            lines.append(f"class {c.id} d {c.modulus} ranks {ranks or '0'}")
        lines.append(f"total {self.total_rank}")
        return lines

    def render_tsv(self) -> str:
        rows = ["class\td\tgrading\trank"]
        for c in self.classes:
            for g, r in sorted(c.ranks.items()):
                if r:
                    rows.append(f"{c.id}\t{c.modulus}\t{g}\t{r}")
        rows.append(f"total\t\t\t{self.total_rank}")
        return "\n".join(rows) + "\n"


def class_homology(d: Diagram, cls: SpincClass) -> ClassHomology:
    members = cls.members
    gradings = relative_gradings(d, members)
    modulus = grading_modulus(d, min(members))
    rows = boundary_matrix(d, members)
    verify_d_squared(d, members, rows)
    by_grading: dict[int, list[int]] = {}
    for i, g in enumerate(members):
        by_grading.setdefault(gradings[g], []).append(i)
    rank_out = {}
    for grading, idxs in by_grading.items():
        rank_out[grading] = _gf2_rank([rows[i] for i in idxs])
    ranks = {}
    for grading, idxs in by_grading.items():
        above = grading + 1
        if modulus:
            above %= modulus
        ranks[grading] = (len(idxs) - rank_out[grading]
                          - rank_out.get(above, 0))
    return ClassHomology(cls.id, members, modulus, gradings, ranks)


def sfh(d: Diagram) -> SFHResult:
    """Homology ranks per class and grading.  Raises InvalidDiagramError,
    NotBalancedError, NotAdmissibleError or NotNiceError, checked in that
    order, when the diagram does not support the count."""
    d.validate()
    problems = balance_report(d)
    if problems:
        raise NotBalancedError(problems)
    require_admissible(d)
    require_nice(d)
    classes = tuple(class_homology(d, cls) for cls in spinc_partition(d))
    return SFHResult(d.name, sum(len(c.members) for c in classes), classes,
                     periodic_rank=h2_rank(d))
