"""Domains of a diagram and the linear systems they satisfy.

A domain is an integer combination of the interior regions, the regions
whose closure misses the boundary of the surface.  Regions touching the
boundary are frozen at multiplicity zero, which is what makes the counts
below compute the boundary-sensitive invariant rather than a closed one.
Everything below computes on coefficient tuples; the public functions
wrap them in ``Domain``s.

The defect system encodes how the alpha and beta pieces of a domain's
boundary terminate at crossings.  Connecting domains from x to y are its
integer solutions for the right-hand side determined by the pair; periodic
domains are the kernel.  Sign convention, fixed once and used everywhere:
the alpha part of the boundary runs from x to y (each alpha circle picks up
y minus x) and the beta part runs back (x minus y).

The right-hand side is additive (Ozsvath-Szabo, math/0101206, 2.4):
rhs(x, y) = R(y) - R(x), where R(z) is +1 at the alpha row and -1 at the
beta row of each point of z.  With a u = h the column Hermite
factorization of the defect matrix, each generator z has a potential,
computed once: R(z) reduced against h's pivots in row order, each step
taking the floor quotient at the pivot's row, leaves coefficients c(z) and
a residue R(z) - h c(z), the class key.  h is in column echelon form, so
the residue is the same for every vector of one coset of its column
lattice, which is a's: x and y are connected exactly when their keys
agree, and then u c(y) - u c(x) solves the pair's system, formed the first
time a pair needs it.

An admissible diagram has an area form (Stiemke's lemma): positive integer
region weights w under which periodic domains have area zero.  When every
periodic basis vector sums to 0, all-ones is one, and that certifies
admissibility without a program; otherwise one exact LP decides it and its
duals give the form.  All domains from x to y then share the area A = w.D,
so a nonnegative one has 0 <= D_r <= A // w_r, which bounds an integer walk
over the periodic basis.  A is linear in the generators: A = a(y) - a(x),
where a(g) = w.u c(g) is the area of g's particular solution, kept in g's
potential once a pair search first needs it.  So A is read from the two
potentials before any domain is formed: a pair with A < 0 has no
nonnegative domain, nor one with A = 0 unless x and y are the same point
set, whose only one is the zero domain; such pairs get no domain, no
reduction and no walk.  The walk first bounds the rows it can decide at
its root, those no basis vector touches and those a single vector
touches, and returns an empty coset from there; otherwise its depth-first
search bounds every row as soon as its choices make the row final, at the
last basis vector that touches it, so every step it keeps stays within
the box.

A pair's answer depends only on the points it exchanges, x minus y and
y minus x, its exchange key.  Its right-hand side is
R(y) - R(x) = sum over p in y - x of v_p minus sum over p in x - y of v_p,
with v_p = e_(p, alpha) - e_(p, beta), and the v_p of distinct crossings
sit on disjoint rows; so the right-hand side is a function of the key,
and with it the pair's connectedness, its area and its nonnegative
domains, all functions of the right-hand side alone.  Conversely the
right-hand side reads the key back, so distinct keys have distinct
cosets.  Each diagram keeps one answer per key: the first pair with a
key is decided as above, walking its coset only when its area is
positive, and every later pair with that key is one lookup, with no key
comparison, area or reduction.
"""
from __future__ import annotations

import math
from functools import cached_property
from operator import mul

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
    """Integer multiplicities on the interior regions of one diagram, the
    read-only type the public functions hand out: ``diagram``, ``coeffs``
    (one per ``diagram.interior_regions``, count checked), ``coeff``,
    ``as_dict``, ``describe``, and equality on the same diagram object."""

    __slots__ = ("diagram", "coeffs")

    def __init__(self, diagram: Diagram, coeffs):
        self.diagram = diagram
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != len(diagram.interior_regions):
            raise ValueError("coefficient count does not match interior regions")

    @classmethod
    def _list(cls, diagram: Diagram, rows) -> list["Domain"]:
        """New Domains on diagram, one per coefficient tuple of rows, without
        the length check: for tuples this module built over the diagram's
        interior regions."""
        new = object.__new__
        out = []
        for coeffs in rows:
            dom = new(cls)
            dom.diagram = diagram
            dom.coeffs = coeffs
            out.append(dom)
        return out

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

    def __eq__(self, other):
        return (isinstance(other, Domain) and self.diagram is other.diagram
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Domain({self.describe()})"


# -- the defect system -------------------------------------------------------


class DefectSystem:
    """One diagram's defect matrix and what derives from it: the column
    Hermite factorization, each generator's potential, the echelon periodic
    basis, the admissibility verdict, the area form, each exchange key's
    nonnegative domains and each class's grading modulus and gradings,
    each built at most once, on first use.  euler and quads give four times
    the Maslov index in integers: 4 e(r) minus its crossing corners per
    interior region r, and per crossing the columns of its interior
    quadrants (combined per pair by ``spinc.index_weights``).
    The defect matrix has one row per (crossing, curve kind), labelled in
    ``labels``, and one column per interior region in sorted order.  Rows
    for markers are omitted: the two edges at a marker have the same
    flanking regions, so those conditions hold identically.  It is kept
    only as ``columns``, one {row: nonzero entry} per interior region,
    which is what the factorization reads.  The diagram holds this object
    as ``Diagram.defects``.  Everything here is shared and must not be
    modified.

    It keeps no reference to its diagram, only two of its tables,
    ``interior_regions`` and ``crossing_curves``, and caches only ints and
    tuples: the periodic basis, the admissibility witness and each pair
    answer are coefficient tuples over ``interior_regions``, which the
    public functions below wrap in new ``Domain``s.  So dropping the
    diagram's last reference frees it and this cache by reference counting.

    The pair answers, ``_pairs``, are kept under each pair's exchange key
    (x minus y, y minus x), two bitmasks over crossing indices read from
    the generators' point masks, which ``_potential`` builds with R(g).
    The key fixes the pair's right-hand side (see the module docstring), so
    the answer is exact for every pair with that key.
    """

    def __init__(self, d: Diagram):
        order = self.interior_regions = d.interior_regions
        self.crossing_curves = d.crossing_curves
        # generator -> [class key, c(g) as (pivot, coefficient) pairs,
        # u c(g) or None until needed, a(g) = w.u c(g) or None until needed,
        # the bitmask of its points over crossing indices]
        self._potentials: dict[tuple[int, ...], list] = {}
        # exchange key (x minus y, y minus x) as two point bitmasks -> the
        # pair's nonnegative domains (``positive_connecting_domains``)
        self._pairs: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        # generator -> its class's grading modulus (``spinc.grading_modulus``)
        self.moduli: dict[Generator, int] = {}
        # (least member, modulus) -> generator -> grading relative to that
        # member (``spinc.relative_gradings``), for classes of several members
        self.gradings: dict[tuple[Generator, int], dict[Generator, int]] = {}
        col = {r: i for i, r in enumerate(order)}
        self.euler = [4 * d.regions[r].euler() - d.crossing_corner_count[r]
                      for r in order]
        self.quads = {v: [col[c.region] for c in d.corners_by_vertex[v]
                          if c.region in col]
                      for v in d.crossings}
        # one pass over the edges: an alpha or beta edge adds its flanking
        # regions' columns to its head's row and subtracts them from its
        # tail's; each column is {row: nonzero entry}
        self.labels = [(v, curve) for v in d.crossings for curve in (ALPHA, BETA)]
        at = {label: i for i, label in enumerate(self.labels)}
        self._alpha_row = {v: 2 * i for i, v in enumerate(d.crossings)}
        by_region: dict[int, dict[int, int]] = {r: {} for r in order}
        for e in d.edges.values():
            head, tail = at.get((e.head, e.curve)), at.get((e.tail, e.curve))
            if head == tail:
                continue  # no row, or a loop whose two ends cancel
            pos, neg = d.edge_sides[e.id]
            for r, sign in ((pos, 1), (neg, -1)):
                c = by_region.get(r)
                if c is not None:
                    if head is not None:
                        c[head] = c.get(head, 0) + sign
                    if tail is not None:
                        c[tail] = c.get(tail, 0) - sign
        self.columns = [{i: x for i, x in by_region[r].items() if x}
                        for r in order]

    @cached_property
    def hermite(self) -> tuple[list[intlinalg.Pivot], list[dict[int, int]]]:
        """hermite_factorization of the columns: the pivots and the kernel
        columns.  Only built for diagrams with interior regions."""
        return intlinalg.hermite_factorization(self.columns)

    def _potential(self, g: Generator) -> list:
        if not isinstance(g, tuple):
            g = tuple(g)
        pot = self._potentials.get(g)
        if pot is None:
            points = set(g)
            if not points <= self.crossing_curves.keys():
                raise ValueError(f"generator {g} uses non-crossing vertices")
            res = [0] * len(self.labels)
            mask = 0
            for p in points:
                i = self._alpha_row[p]
                res[i] += 1
                res[i + 1] -= 1
                mask |= 1 << (i >> 1)
            if self.interior_regions:
                coeffs = intlinalg.hermite_reduce(self.hermite[0], res)
                pot = [tuple(res), coeffs, None, None, mask]
            else:
                # no regions to solve for: x and y connect when they agree
                pot = [tuple(res), [], [], None, mask]
            self._potentials[g] = pot
        return pot

    def _particular(self, pot: list) -> list[int]:
        """u c(g) for g's potential pot, built on first use from its
        reduction coefficients; for generators x and y with equal keys,
        the particular solution of y minus that of x is a domain from x to
        y."""
        if pot[2] is None:
            sol = [0] * len(self.interior_regions)
            pivots = self.hermite[0]
            for k, q in pot[1]:
                for j, x in pivots[k][3].items():
                    sol[j] += q * x
            pot[2] = sol
        return pot[2]

    def _area(self, pot: list) -> int:
        """a(g) = w.u c(g) for g's potential pot under the area form, built
        on first use; for x and y with equal keys, every domain from x to y
        has area a(y) - a(x)."""
        if pot[3] is None:
            pot[3] = sum(a * c for a, c in zip(self.area, self._particular(pot)))
        return pot[3]

    @cached_property
    def periodic(self) -> tuple[tuple[int, ...], ...]:
        """Lattice basis of the periodic domains, in reduced column-echelon
        form, each vector as its coefficient tuple over
        ``interior_regions``."""
        n = len(self.interior_regions)
        if not n:
            return ()
        kernel = ([u.get(j, 0) for j in range(n)] for u in self.hermite[1])
        return tuple(map(tuple, intlinalg.hermite_columns(kernel)))

    @cached_property
    def _program(self) -> ratlp.LPResult | None:
        """max 1.Bt over 0 <= Bt <= 1 (B: periodic basis); 0 iff admissible.
        None, and no LP, when every basis vector sums to 0 (so when there
        are none): all-ones is then an area form, a positive w with w.P = 0
        for every periodic P, which certifies admissibility and is the
        area the program's duals would give.  The LP decides every other
        lattice."""
        basis = self.periodic
        sums = [sum(b) for b in basis]
        if not any(sums):
            return None
        bmat = list(zip(*basis))
        a_ub = [[-v for v in row] for row in bmat] + bmat
        b_ub = [0] * len(bmat) + [1] * len(bmat)
        return ratlp.maximize(sums, a_ub, b_ub)

    @cached_property
    def admissibility(self) -> tuple[bool, tuple[int, ...] | None]:
        """See ``admissibility``; the witness is a coefficient tuple."""
        res = self._program
        if res is None or res.objective == 0:
            return True, None
        coeffs = [sum(c * t for c, t in zip(row, res.x))
                  for row in zip(*self.periodic)]
        scale = math.lcm(*(v.denominator for v in coeffs))
        ints = [int(v * scale) for v in coeffs]
        g = math.gcd(*ints)
        witness = tuple(v // g for v in ints)
        if min(witness) < 0 or not any(witness):
            raise RuntimeError(f"admissibility witness {witness} is not a "
                               "nonzero nonnegative periodic domain")
        return False, witness

    @cached_property
    def area(self) -> tuple[int, ...]:
        """The area form of an admissible diagram.  All-ones when there is
        no program, since every periodic basis vector then sums to 0 (with
        c = 0 the program's duals would be 0 and give all-ones too).
        Otherwise the LP decides: at its optimum 0 the duals, nu for B t >= 0
        and mu for B t <= 1, have mu = 0 and B^T (1 + nu) = 0, so 1 + nu
        scaled to integers is one."""
        res = self._program
        if res is None:
            return (1,) * len(self.interior_regions)
        if not self.admissibility[0]:
            raise ValueError("an inadmissible diagram has no area form")
        w = [1 + nu for nu in res.dual[:len(res.dual) // 2]]
        scale = math.lcm(*(v.denominator for v in w))
        return tuple(int(v * scale) for v in w)

    @cached_property
    def _echelon(self) -> tuple[list[tuple[int, int, list, list, list]],
                                list[int]]:
        """Each periodic basis vector j as its lead (first nonzero) row, its
        positive lead entry, its nonzero (row, entry) pairs, and two lists
        of (row, entry) that together hold every row whose last nonzero
        basis entry is j's, the rows that choosing t_j makes final: those
        another vector touches too, bounded in ``_search``, and those j
        alone touches, bounded once at ``_walk``'s root.  Then the rows no
        basis vector touches, final from the start."""
        basis = self.periodic
        touching: dict[int, list[int]] = {}
        for j, b in enumerate(basis):
            for r, c in enumerate(b):
                if c:
                    touching.setdefault(r, []).append(j)
        vectors = []
        for j, b in enumerate(basis):
            terms = [(r, c) for r, c in enumerate(b) if c]
            lead, p = terms[0]
            vectors.append((lead, p, terms,
                            [(r, c) for r, c in terms
                             if touching[r][-1] == j and len(touching[r]) > 1],
                            [(r, c) for r, c in terms if touching[r] == [j]]))
        untouched = [r for r in range(len(self.interior_regions))
                     if r not in touching]
        return vectors, untouched

    def _base(self, px: list, py: list) -> tuple[int, ...]:
        """Coefficients of the canonical domain from x to y, given their
        potentials px and py, whose keys must agree (see
        ``connecting_domain``)."""
        sol = [b - a for a, b in zip(self._particular(px), self._particular(py))]
        for lead, p, terms, _, _ in self._echelon[0]:
            q = sol[lead] // p
            if q:
                for i, c in terms:
                    sol[i] -= q * c
        return tuple(sol)

    def _pair(self, px: list, py: list) -> tuple[tuple[int, ...], ...]:
        """The coefficient tuples of the nonnegative domains from x to y, in
        increasing order, given their potentials px and py; the diagram must
        be admissible.  A disconnected pair has none, nor one of area
        A = a(y) - a(x) < 0, nor one of A = 0 whose point sets differ; only
        the rest form the canonical base and walk its coset."""
        if px[0] != py[0]:
            return ()
        area = self._area(py) - self._area(px)
        if area < 0 or not area and px[4] != py[4]:
            return ()
        return self._walk(self._base(px, py))

    def _walk(self, base: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The nonnegative D = base + sum t_j basis_j, as sorted
        coefficient tuples; base must be canonical.

        Every such D has the coset's area A = w.base, so none exists when
        A < 0, and when A = 0 only D = 0 could, which lies in the coset
        exactly when its canonical base is 0.  Otherwise each row r must
        stay within [0, A // w_r].  Two kinds of row are decided at the
        root, before any search: rows no vector touches are base's, and a
        row that only vector j touches reads base_r + t_j k on every D, so
        it confines t_j to one interval, the same at every node of the
        search.  When some j's rows leave it no t_j, the coset is empty and
        the depth-first search (``_search``) is never entered.
        """
        w = self.area
        area = sum(map(mul, w, base))
        if area < 0 or not area and any(base):
            return ()
        vectors, untouched = self._echelon
        caps = [area // v for v in w]
        for r in untouched:
            if not 0 <= base[r] <= caps[r]:
                return ()
        if not vectors:
            return (base,)
        roots = []
        for _, _, _, _, alone in vectors:
            lo, hi = _interval(-math.inf, math.inf, alone, base, caps)
            if lo > hi:
                return ()
            roots.append((lo, hi))
        return self._search(base, caps, roots)

    def _search(self, base: tuple[int, ...], caps: list[int],
                roots: list[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
        """``_walk``'s depth-first search, under the row caps A // w_r and
        the root interval of each t_j.  A row becomes final once t_j is
        chosen for the last basis vector j that touches it, and t_j is
        taken only from the root interval narrowed by the rows final at j
        that other vectors touch too, so no kept step is undone later; a
        branch ends only where a later interval is empty.  Leads are
        positive and increase with j, so taking each t_j in increasing
        order yields the domains already sorted.  Each leaf is kept as its
        coefficient tuple."""
        vectors = self._echelon[0]

        def steps(cur: list[int], j: int) -> range:
            lo, hi = roots[j]
            shared = vectors[j][3]
            if shared:
                lo, hi = _interval(lo, hi, shared, cur, caps)
            return range(lo, hi + 1)

        # depth first, without recursion: each stack entry is a partial D,
        # the index of the basis vector its children add and the steps t
        # not yet tried
        last = len(vectors) - 1
        out = []
        cur = list(base)
        stack = [(cur, 0, iter(steps(cur, 0)))]
        while stack:
            cur, j, ts = stack[-1]
            t = next(ts, None)
            if t is None:
                stack.pop()
                continue
            nxt = cur
            if t:
                nxt = cur.copy()
                for i, c in vectors[j][2]:
                    nxt[i] += t * c
            if j == last:
                out.append(tuple(nxt))
            else:
                stack.append((nxt, j + 1, iter(steps(nxt, j + 1))))
        return tuple(out)


def _interval(lo, hi, rows: list[tuple[int, int]], cur: list[int],
              caps: list[int]):
    """[lo, hi] narrowed to the t that keep cur_r + t k within [0, caps_r]
    for every (r, k) of rows; empty when lo > hi."""
    for r, k in rows:
        c = cur[r]
        if k > 0:
            lo, hi = max(lo, -(c // k)), min(hi, (caps[r] - c) // k)
        else:
            lo, hi = max(lo, -((caps[r] - c) // -k)), min(hi, c // -k)
    return lo, hi


def periodic_basis(d: Diagram) -> list[Domain]:
    """Lattice basis of the periodic domains, in column-echelon form, as
    new Domains on every call."""
    return [Domain(d, b) for b in d.defects.periodic]


def h2_rank(d: Diagram) -> int:
    """Rank of the periodic domain lattice."""
    return len(d.defects.periodic)


def connecting_domain(d: Diagram, x: Generator, y: Generator) -> Domain | None:
    """A canonical domain from x to y, or None when the pair is disconnected.

    The pair is connected exactly when the two generators' class keys agree,
    and then the difference of their particular solutions is one domain
    from x to y (see ``DefectSystem._potential`` and ``._particular``).  The
    solution set is a coset of the periodic lattice; the returned
    representative is normalized against the echelon basis, so equal cosets
    always yield the same domain.
    """
    ds = d.defects
    px, py = ds._potential(x), ds._potential(y)
    if px[0] != py[0]:
        return None
    return Domain(d, ds._base(px, py))


# -- admissibility -----------------------------------------------------------


def admissibility(d: Diagram) -> tuple[bool, Domain | None]:
    """(True, None) when admissible, else (False, positive periodic witness).

    Admissible means every nonzero periodic domain takes a negative
    multiplicity somewhere.  Searching the unit box for a rational periodic
    point with positive total and clearing denominators makes the witness
    exact.  The witness is a new Domain on every call.
    """
    ok, witness = d.defects.admissibility
    return ok, None if ok else Domain(d, witness)


def require_admissible(d: Diagram) -> None:
    ok, witness = d.defects.admissibility
    if not ok:
        raise NotAdmissibleError(Domain(d, witness))


# -- positive domain enumeration ---------------------------------------------


def positive_connecting_domains(d: Diagram, x: Generator,
                                y: Generator) -> list[Domain]:
    """All nonnegative domains from x to y, ordered by coefficients.
    Requires an admissible diagram, which is exactly the condition that
    makes this set finite.

    The answer depends only on the points the pair exchanges, x minus y and
    y minus x, so it is kept per diagram under that exchange key
    (``DefectSystem._pairs``): a pair whose key an earlier pair had is
    answered by one lookup, with no key comparison, area, vector difference
    or reduction.  A new key is decided by ``DefectSystem._pair``: a
    disconnected pair, one with area A = a(y) - a(x) < 0 and one with A = 0
    whose point sets differ get no domain, and only the rest form the
    canonical base and walk its coset.  The cache keeps coefficient tuples;
    the list and its Domains are new on every call."""
    ds = d.defects
    if not ds.admissibility[0]:  # the cached verdict; raise with its witness
        require_admissible(d)
    px, py = ds._potential(x), ds._potential(y)
    mx, my = px[4], py[4]
    key = mx & ~my, my & ~mx
    found = ds._pairs.get(key)
    if found is None:
        found = ds._pairs[key] = ds._pair(px, py)
    return Domain._list(d, found) if found else []
