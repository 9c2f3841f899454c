"""Generator bookkeeping above the domain layer.

Generators split into classes (two generators belong together exactly when
some domain connects them), each class carries relative integer gradings
from the Maslov index, and the grading is exact modulo the gcd of Maslov
indices of periodic domains.

The class partition has an independent homological description: connect y
to x by arcs along the alpha circles and back along the beta circles; the
resulting loop's class in the first homology of the underlying 3-manifold
(curve classes and region boundaries killed) vanishes exactly for pairs in
the same class.  That description is kept as a test reference
(``epsilon_class`` in ``tests/oracles.py``), checked against the partition
computed here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diagram import Diagram, Generator, enumerate_generators
from .domains import Domain, connecting_domain, defect_rhs


@dataclass(frozen=True)
class SpincClass:
    id: str
    members: tuple[Generator, ...]


def spinc_partition(d: Diagram,
                    generators: list[Generator] | None = None) -> list[SpincClass]:
    """Generators grouped by domain-connectedness, ids in order of least member."""
    groups: list[list[Generator]] = []
    for g in (enumerate_generators(d) if generators is None else sorted(generators)):
        for members in groups:
            if connecting_domain(d, g, members[0]) is not None:
                members.append(g)
                break
        else:
            groups.append([g])
    return [SpincClass(f"s{i}", tuple(members))
            for i, members in enumerate(groups)]


# -- Maslov index -------------------------------------------------------------


def point_measure(d: Diagram, dom: Domain, v: int) -> Fraction:
    """Average multiplicity of the four quadrants at a crossing."""
    total = sum(dom.coeff(c.region) for c in d.quadrants[v])
    return Fraction(total, 4)


def maslov_index(d: Diagram, dom: Domain, x: Generator,
                 y: Generator) -> int | None:
    """Index of a domain from x to y: Euler measure plus the two point
    measures.  None when the domain does not connect x to y."""
    rhs = defect_rhs(d, x, y)
    for row, want in zip(d.defects.rows, rhs):
        if sum(a * c for a, c in zip(row, dom.coeffs)) != want:
            return None
    e = Fraction(0)
    for r, c in zip(d.interior_regions, dom.coeffs):
        if c:
            e += c * (Fraction(d.regions[r].euler())
                      - Fraction(d.crossing_corner_count[r], 4))
    total = e + sum(point_measure(d, dom, v) for v in x) \
              + sum(point_measure(d, dom, v) for v in y)
    assert total.denominator == 1, f"fractional index {total} for a connecting domain"
    return int(total)


def grading_modulus(d: Diagram, member: Generator) -> int:
    """Gcd of Maslov indices over the periodic lattice; 0 means exact gradings."""
    vals = [maslov_index(d, p, member, member) for p in d.defects.periodic]
    return math.gcd(*vals) if vals else 0


def relative_gradings(d: Diagram, members: tuple[Generator, ...]) -> dict[Generator, int]:
    """Gradings within one class, normalized so the least member sits at 0.

    Differences gr(x) - gr(y) equal the Maslov index of any domain from x
    to y, reduced modulo the class modulus when that is nonzero.
    """
    least = min(members)
    modulus = grading_modulus(d, least)
    out = {}
    for g in members:
        if g == least:
            out[g] = 0
            continue
        dom = connecting_domain(d, g, least)
        if dom is None:
            raise ValueError(f"{g} and {least} are not in the same class")
        val = maslov_index(d, dom, g, least)
        out[g] = val % modulus if modulus else val
    return out
