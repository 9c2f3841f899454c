"""Generator bookkeeping above the domain layer.

Generators split into classes (two generators belong together exactly when
some domain connects them), each class carries relative integer gradings
from the Maslov index, and the grading is exact modulo the gcd of Maslov
indices of periodic domains.  The index is summed in integer quarters:
``index_weights(d, x, y)`` gives region weights w with w.D = 4 mu(D) for
every domain D from x to y, so one pair's weights serve all its domains.
Every caller sums those weights directly, over domains that connect their
pair by construction (``connecting_domain``, the periodic basis and the
nonnegative domains of a pair), so no index is computed for a domain that
might not connect its pair.

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

from .diagram import Diagram, Generator, enumerate_generators
from .domains import connecting_domain


@dataclass(frozen=True)
class SpincClass:
    id: str
    members: tuple[Generator, ...]


def spinc_partition(d: Diagram) -> list[SpincClass]:
    """Generators grouped by domain-connectedness, ids in order of least member."""
    groups: list[list[Generator]] = []
    for g in enumerate_generators(d):
        for members in groups:
            if connecting_domain(d, g, members[0]) is not None:
                members.append(g)
                break
        else:
            groups.append([g])
    return [SpincClass(f"s{i}", tuple(members))
            for i, members in enumerate(groups)]


# -- Maslov index -------------------------------------------------------------


def index_weights(d: Diagram, x: Generator, y: Generator) -> list[int]:
    """Region weights w with w.D = 4 mu(D) for every domain D from x to y:
    the Euler weights, plus one on each interior quadrant at each point of
    x and each point of y."""
    w = list(d.defects.euler)
    quads = d.defects.quads
    for v in (*x, *y):
        for i in quads[v]:
            w[i] += 1
    return w


def _index(w: list[int], coeffs: tuple[int, ...]) -> int:
    """mu(D) for the domain D with coefficients coeffs, from its pair's
    ``index_weights`` w, unchecked: D must connect that pair."""
    total = sum(a * c for a, c in zip(w, coeffs))
    if total % 4:
        raise RuntimeError(f"fractional index {total}/4 for a connecting domain")
    return total // 4


def grading_modulus(d: Diagram, member: Generator) -> int:
    """Gcd of Maslov indices over the periodic lattice; 0 means exact gradings.
    Computed once per member and diagram: ``class_homology`` and
    ``boundary_matrix`` both ask for it at the class's least member."""
    moduli = d.defects.moduli
    if member not in moduli:
        periodic = d.defects.periodic
        modulus = 0
        if periodic:
            w = index_weights(d, member, member)
            modulus = math.gcd(*(_index(w, p) for p in periodic))
        moduli[member] = modulus
    return moduli[member]


def relative_gradings(d: Diagram, members: tuple[Generator, ...],
                      modulus: int) -> dict[Generator, int]:
    """Gradings within one class, normalized so the least member sits at 0.

    Differences gr(x) - gr(y) equal the Maslov index of any domain from x
    to y, reduced modulo ``modulus`` (see ``grading_modulus``) when nonzero.
    Each member's grading is summed once per diagram, least member and
    modulus (``DefectSystem.gradings``): ``class_homology`` and
    ``boundary_matrix`` both ask for a class's gradings.  The dict is new on
    every call.
    """
    least = min(members)
    out = {}
    known = None
    for g in members:
        if g == least:
            out[g] = 0
            continue
        if known is None:  # fetched only for a class of several members
            known = d.defects.gradings.setdefault((least, modulus), {})
        val = known.get(g)
        if val is None:
            dom = connecting_domain(d, g, least)
            if dom is None:
                raise ValueError(f"{g} and {least} are not in the same class")
            val = _index(index_weights(d, g, least), dom.coeffs)
            val = known[g] = val % modulus if modulus else val
        out[g] = val
    return out
