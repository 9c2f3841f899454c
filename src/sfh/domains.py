"""Domains of a diagram and the linear systems they satisfy.

A domain is an integer combination of the interior regions, the regions
whose closure misses the boundary of the surface.  Regions touching the
boundary are frozen at multiplicity zero, which is what makes the counts
below compute the boundary-sensitive invariant rather than a closed one.

The defect system encodes how the alpha and beta pieces of a domain's
boundary terminate at crossings.  Connecting domains from x to y are its
integer solutions for the right-hand side determined by the pair; periodic
domains are the kernel.  Sign convention, fixed once and used everywhere:
the alpha part of the boundary runs from x to y (each alpha circle picks up
y minus x) and the beta part runs back (x minus y).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

from . import intlinalg, ratlp
from .diagram import ALPHA, BETA, Diagram, Generator


class NotAdmissibleError(ValueError):
    """Raised by computations that require an admissible diagram."""

    def __init__(self, witness: "Domain"):
        super().__init__(
            "diagram is not admissible; positive periodic domain: "
            + witness.describe())
        self.witness = witness


class Domain:
    """Integer multiplicities on the interior regions of one diagram."""

    __slots__ = ("diagram", "coeffs")

    def __init__(self, diagram: Diagram, coeffs):
        self.diagram = diagram
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != len(diagram.interior_regions):
            raise ValueError("coefficient count does not match interior regions")

    @classmethod
    def zero(cls, diagram: Diagram) -> "Domain":
        return cls(diagram, (0,) * len(diagram.interior_regions))

    @classmethod
    def from_dict(cls, diagram: Diagram, data: dict[int, int]) -> "Domain":
        order = diagram.interior_regions
        unknown = set(data) - set(order)
        if unknown:
            raise ValueError(
                f"regions {sorted(unknown)} are not interior regions")
        return cls(diagram, tuple(data.get(r, 0) for r in order))

    def coeff(self, region_id: int) -> int:
        try:
            return self.coeffs[self.diagram.interior_regions.index(region_id)]
        except ValueError:
            if region_id in self.diagram.regions:
                return 0
            raise

    def as_dict(self) -> dict[int, int]:
        return {r: c for r, c in zip(self.diagram.interior_regions, self.coeffs) if c}

    def describe(self) -> str:
        parts = [f"r{r}:{c}" for r, c in sorted(self.as_dict().items())]
        return " ".join(parts) if parts else "empty"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other: "Domain") -> "Domain":
        assert self.diagram is other.diagram
        return Domain(self.diagram,
                      tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Domain") -> "Domain":
        assert self.diagram is other.diagram
        return Domain(self.diagram,
                      tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Domain":
        return Domain(self.diagram, tuple(-a for a in self.coeffs))

    def scaled(self, k: int) -> "Domain":
        return Domain(self.diagram, tuple(k * a for a in self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, Domain) and self.diagram is other.diagram
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Domain({self.describe()})"

    def edge_multiplicity(self, edge_id: int) -> int:
        """Net multiplicity of the domain boundary along a directed edge."""
        pos, neg = self.diagram.edge_sides[edge_id]
        val = 0
        if pos is not None:
            val += self.coeff(pos)
        if neg is not None:
            val -= self.coeff(neg)
        return val

    def curve_multiplicities(self) -> dict[tuple[str, int], int]:
        """For a periodic domain: the whole-circle coefficient per curve."""
        out = {}
        for (curve, index), order in self.diagram.circle_order.items():
            if curve not in (ALPHA, BETA):
                continue
            vals = {self.edge_multiplicity(e) for e in order}
            if len(vals) != 1:
                raise ValueError(
                    f"multiplicity is not constant along {curve}({index}); "
                    "not a periodic domain")
            out[(curve, index)] = vals.pop()
        return out


# -- the defect system -------------------------------------------------------


class DefectSystem:
    """One diagram's defect matrix and what derives from it: the Smith
    factorization, the echelon periodic basis and the admissibility
    verdict.  Each is built at most once per diagram, on first use; the
    diagram holds this object as ``Diagram.defects``.

    rows and labels are described at ``defect_system``.  Everything here is
    shared by all callers and must not be modified.
    """

    def __init__(self, d: Diagram):
        self.diagram = d
        order = d.interior_regions
        col = {r: i for i, r in enumerate(order)}
        self.rows: list[list[int]] = []
        self.labels: list[tuple[int, str]] = []
        for v in d.crossings:
            for curve in (ALPHA, BETA):
                row = [0] * len(order)
                for e in d.edges.values():
                    if e.curve != curve:
                        continue
                    sign = (1 if e.head == v else 0) - (1 if e.tail == v else 0)
                    if sign == 0:
                        continue
                    pos, neg = d.edge_sides[e.id]
                    if pos in col:
                        row[col[pos]] += sign
                    if neg in col:
                        row[col[neg]] -= sign
                self.rows.append(row)
                self.labels.append((v, curve))

    @cached_property
    def smith(self):
        """smith_normal_form of the rows; a zero row stands in for none.
        Only built for diagrams with interior regions."""
        n = len(self.diagram.interior_regions)
        return intlinalg.smith_normal_form(self.rows or [[0] * n])

    @cached_property
    def periodic(self) -> tuple[Domain, ...]:
        """Lattice basis of the periodic domains, in column-echelon form."""
        if not self.diagram.interior_regions:
            return ()
        return tuple(Domain(self.diagram, vec)
                     for vec in intlinalg.kernel_basis(self.smith))

    @cached_property
    def admissibility(self) -> tuple[bool, Domain | None]:
        """See ``admissibility``."""
        basis = self.periodic
        if not basis:
            return True, None
        m = len(self.diagram.interior_regions)
        k = len(basis)
        bmat = [[basis[j].coeffs[r] for j in range(k)] for r in range(m)]
        a_ub = [[-v for v in row] for row in bmat] + [row[:] for row in bmat]
        b_ub = [0] * m + [1] * m
        c = [sum(bmat[r][j] for r in range(m)) for j in range(k)]
        res = ratlp.maximize(c, a_ub, b_ub)
        assert res.status == ratlp.OPTIMAL  # box is bounded and contains 0
        if res.objective == 0:
            return True, None
        coeffs = [sum(Fraction(bmat[r][j]) * res.x[j] for j in range(k))
                  for r in range(m)]
        scale = math.lcm(*(v.denominator for v in coeffs))
        ints = [int(v * scale) for v in coeffs]
        g = math.gcd(*ints)
        witness = Domain(self.diagram, [v // g for v in ints])
        assert witness.is_nonnegative() and not witness.is_zero()
        return False, witness


def defect_system(d: Diagram) -> tuple[list[list[int]], list[tuple[int, str]]]:
    """Matrix of the boundary-termination conditions at the crossings.

    One row per (crossing, curve kind), columns indexed by the interior
    regions in sorted order.  Rows for markers are omitted: the two edges
    at a marker have the same flanking regions, so those conditions hold
    identically.  The lists are the diagram's own; do not modify them.
    """
    return d.defects.rows, d.defects.labels


def defect_rhs(d: Diagram, x: Generator, y: Generator) -> list[int]:
    xs, ys = set(x), set(y)
    rhs = []
    for v in d.crossings:
        alpha_val = (1 if v in ys else 0) - (1 if v in xs else 0)
        rhs.append(alpha_val)
        rhs.append(-alpha_val)
    return rhs


def _check_generator(d: Diagram, g: Generator) -> None:
    crossings = set(d.crossings)
    if not set(g) <= crossings:
        raise ValueError(f"generator {g} uses non-crossing vertices")


def periodic_basis(d: Diagram) -> list[Domain]:
    """Lattice basis of the periodic domains, in column-echelon form."""
    return list(d.defects.periodic)


def h2_rank(d: Diagram) -> int:
    """Rank of the periodic domain lattice."""
    return len(d.defects.periodic)


def connecting_domain(d: Diagram, x: Generator, y: Generator) -> Domain | None:
    """A canonical domain from x to y, or None when the pair is disconnected.

    The solution set is a coset of the periodic lattice; the returned
    representative is normalized against the echelon basis, so equal cosets
    always yield the same domain.
    """
    _check_generator(d, x)
    _check_generator(d, y)
    rhs = defect_rhs(d, x, y)
    if not d.interior_regions:
        return Domain(d, ()) if all(v == 0 for v in rhs) else None
    if not rhs:
        return Domain.zero(d)
    sol = intlinalg.solve(d.defects.smith, rhs)
    if sol is None:
        return None
    for b in d.defects.periodic:
        lead = next(i for i, c in enumerate(b.coeffs) if c)
        q = sol[lead] // b.coeffs[lead]
        if q:
            sol = [s - q * c for s, c in zip(sol, b.coeffs)]
    return Domain(d, sol)


# -- admissibility -----------------------------------------------------------


def admissibility(d: Diagram) -> tuple[bool, Domain | None]:
    """(True, None) when admissible, else (False, positive periodic witness).

    Admissible means every nonzero periodic domain takes a negative
    multiplicity somewhere.  Searching the unit box for a rational periodic
    point with positive total and clearing denominators makes the witness
    exact.
    """
    return d.defects.admissibility


def is_admissible(d: Diagram) -> bool:
    return d.defects.admissibility[0]


def require_admissible(d: Diagram) -> None:
    ok, witness = d.defects.admissibility
    if not ok:
        raise NotAdmissibleError(witness)


# -- positive domain enumeration ---------------------------------------------


def positive_connecting_domains(d: Diagram, x: Generator, y: Generator,
                                maslov: int | None = None) -> list[Domain]:
    """All nonnegative domains from x to y.  Requires an admissible diagram,
    which is exactly the condition that makes this set finite.  Passing
    ``maslov`` keeps only domains of that index."""
    require_admissible(d)
    base = connecting_domain(d, x, y)
    if base is None:
        return []
    out = _positive_solutions(d, base)
    if maslov is not None:
        from .spinc import maslov_index
        out = [dom for dom in out if maslov_index(d, dom, x, y) == maslov]
    return out


def _positive_solutions(d: Diagram, base: Domain) -> list[Domain]:
    basis = d.defects.periodic
    if not basis:
        return [base] if base.is_nonnegative() else []
    m = len(d.interior_regions)
    k = len(basis)
    # base + sum t_j * basis_j >= 0, i.e. -B t <= base, and admissibility
    # kills the recession cone, so each t_j ranges over a finite interval
    a_ub = [[-basis[j].coeffs[r] for j in range(k)] for r in range(m)]
    b_ub = [base.coeffs[r] for r in range(m)]
    ranges = []
    for j in range(k):
        c = [0] * k
        c[j] = 1
        hi = ratlp.maximize(c, a_ub, b_ub)
        if hi.status == ratlp.INFEASIBLE:
            return []
        lo = ratlp.minimize(c, a_ub, b_ub)
        assert hi.status == ratlp.OPTIMAL and lo.status == ratlp.OPTIMAL
        ranges.append(range(math.ceil(lo.objective), math.floor(hi.objective) + 1))
    out = []
    for ts in itertools.product(*ranges):
        dom = base
        for t, b in zip(ts, basis):
            if t:
                dom = dom + b.scaled(t)
        if dom.is_nonnegative():
            out.append(dom)
    out.sort(key=lambda dom: dom.coeffs)
    return out
