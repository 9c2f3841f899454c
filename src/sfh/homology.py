"""Homology of the GF(2) complex built from rigid disc counts.

Pipeline: validate, check balance, check admissibility, check that every
interior region is a bigon or a square (the shape that makes disc counts
purely combinatorial), then count.  ``sfh`` is what enforces that niceness.
On a nice diagram every nonnegative index-1 domain is an empty embedded
bigon or rectangle and carries exactly one disc (Sarkar-Wang,
math/0607777, Thm 3.3), so the differential sends a generator to the mod-2
sum of generators reachable by such a domain, each domain counted once.
``verify_d_squared`` checks the result on every class.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import Diagram, Generator, NotBalancedError, balance_report
from .domains import h2_rank, positive_connecting_domains, require_admissible
from .spinc import (SpincClass, _index, grading_modulus, index_weights,
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


def require_nice(d: Diagram) -> None:
    problems = niceness_report(d)
    if problems:
        raise NotNiceError("; ".join(problems))


# -- the complex --------------------------------------------------------------


def boundary_matrix(d: Diagram, members: tuple[Generator, ...]) -> list[int]:
    """GF(2) differential on one class: row i is a bitmask, bit j set when
    an odd number of nonnegative index-1 domains lead from generator i to
    generator j.

    The diagram must be nice, as ``sfh`` enforces: there each such domain
    is an empty embedded bigon or rectangle with exactly one holomorphic
    representative (Sarkar-Wang, Thm 3.3), so counting the domains counts
    the discs.  Every domain D from x to y has mu(D) = gr(x) - gr(y) modulo
    the class's grading modulus (Ozsvath-Szabo, math/0101206, 2.4), so the
    index is read from the class's gradings, asked for once, when the
    first pair turns out to have a nonnegative domain.  Under modulus 0
    that is exact: a pair sets its bit when gr(x) - gr(y) = 1 and it has
    an odd number of domains, and no index is summed.  Under a nonzero
    modulus m, a pair with gr(x) - gr(y) - 1 not divisible by m has no
    index-1 domain; any other pair sums w.D = 4 mu(D) over its domains,
    for its ``index_weights`` w.
    """
    rows = []
    gradings = None
    for x in members:
        row = 0
        for j, y in enumerate(members):
            if x == y:
                continue
            doms = positive_connecting_domains(d, x, y)
            if not doms:
                continue
            if gradings is None:
                modulus = grading_modulus(d, min(members))
                gradings = relative_gradings(d, members, modulus)
            drop = gradings[x] - gradings[y] - 1
            if not modulus:
                odd = not drop and len(doms) % 2
            elif drop % modulus:
                continue
            else:
                w = index_weights(d, x, y)
                odd = sum(sum(a * c for a, c in zip(w, dom.coeffs)) == 4
                          for dom in doms) % 2
            if odd:
                row |= 1 << j
        rows.append(row)
    return rows


def _gf2_rank(rows: list[int]) -> int:
    # one pivot row per leading bit: a row is reduced only by the pivots of
    # the leading bits it takes on the way down
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


def verify_d_squared(d: Diagram, members: tuple[Generator, ...],
                     rows: list[int]) -> None:
    """Raise with diagnostics if the differential rows, those of
    ``boundary_matrix(d, members)``, do not square to zero."""
    n = len(members)
    for i in range(n):
        acc = 0
        bits = rows[i]
        while bits:
            low = bits & -bits
            acc ^= rows[low.bit_length() - 1]
            bits ^= low
        if acc:
            targets = [members[j] for j in range(n) if acc >> j & 1]
            lines = [f"d^2 is nonzero from {members[i]} to {targets}"]
            for z in targets:
                w = index_weights(d, members[i], z)
                for dom in positive_connecting_domains(d, members[i], z):
                    if _index(w, dom.coeffs) == 2:
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
    modulus = grading_modulus(d, min(members))
    gradings = relative_gradings(d, members, modulus)
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
