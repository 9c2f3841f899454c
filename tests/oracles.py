"""Brute-force reference implementations used to cross-check the fast paths.

Everything here recomputes from the raw cell data (edges, region cycles,
quadrants) with its own bookkeeping, deliberately avoiding the library's
matrix assembly, lattice solving, and counting code.  Two exceptions: the
per-pair connecting domain reuses the diagram's defect system and solves
its Smith form afresh for every pair, the path the library's per-generator
potentials replaced; and the pairing invariant at the end reuses
``intlinalg.smith_normal_form`` on a matrix of its own.  Some entries are
earlier forms of library code kept as references for the faster forms that
replaced them: the dense, fully scanned Smith form and the per-crossing
scans behind the defect rows and ``Diagram.crossing_curves``.
"""
from __future__ import annotations

import itertools

from sfh import intlinalg
from sfh.diagram import ALPHA, BD, BETA, Diagram, Generator
from sfh.domains import Domain


def brute_force_generators(d: Diagram) -> list[Generator]:
    """All ways to pick one crossing per alpha circle, one per beta circle."""
    table = {}
    for v in d.crossings:
        curves = {}
        for e in d.edges.values():
            if e.curve in (ALPHA, BETA) and v in (e.tail, e.head):
                curves[e.curve] = e.index
        table[v] = (curves[ALPHA], curves[BETA])
    alphas = sorted({e.index for e in d.edges.values() if e.curve == ALPHA})
    betas = sorted({e.index for e in d.edges.values() if e.curve == BETA})
    if len(alphas) != len(betas):
        return []
    out = set()
    for perm in itertools.permutations(betas):
        pools = [[v for v, ab in table.items() if ab == (a, b)]
                 for a, b in zip(alphas, perm)]
        for combo in itertools.product(*pools):
            out.add(tuple(sorted(combo)))
    return sorted(out)


def _edge_sides(d: Diagram) -> dict[int, tuple[int | None, int | None]]:
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    for r in d.regions.values():
        for cyc in r.cycles:
            for ref in cyc:
                (pos if ref > 0 else neg)[abs(ref)] = r.id
    return {e: (pos.get(e), neg.get(e)) for e in d.edges}


def connects(d: Diagram, coeffs: dict[int, int], x: Generator,
             y: Generator) -> bool:
    """Direct check of the boundary-termination property at every crossing.

    The alpha part of the domain boundary must enter each crossing once more
    than it leaves exactly at y-points (and the reverse at x-points); the
    beta part the other way around.
    """
    sides = _edge_sides(d)

    def mult(eid: int) -> int:
        p, n = sides[eid]
        return coeffs.get(p, 0) - coeffs.get(n, 0)

    xs, ys = set(x), set(y)
    for v in d.crossings:
        for curve, want in ((ALPHA, (v in ys) - (v in xs)),
                            (BETA, (v in xs) - (v in ys))):
            jump = 0
            for e in d.edges.values():
                if e.curve != curve:
                    continue
                if e.head == v:
                    jump += mult(e.id)
                if e.tail == v:
                    jump -= mult(e.id)
            if jump != want:
                return False
    return True


# -- the Smith form with dense rows and full scans ------------------------------


def dense_smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """``intlinalg.smith_normal_form`` as first written: the pivot scan
    always covers the whole trailing block, the divisibility scan runs for
    every pivot, and u is dense throughout.  Returns the same (u, s, v).

    Diagonal entries are nonnegative and each divides the next.  Pivoting is
    deterministic: smallest nonzero magnitude in the trailing block, ties by
    position.  The pivot is chosen again after every elimination pass; one
    kept for the whole diagonal position lets the remainder steps and folds
    grow the trailing block's entries to thousands of digits.
    """
    s = [row[:] for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u = intlinalg.identity(m)
    v = intlinalg.identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        p = s[t][t]
        # clear row and column t by remainder steps
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                add_row(t, i, -(s[i][t] // p))
                dirty = dirty or s[i][t] != 0
        for j in range(t + 1, n):
            if s[t][j]:
                add_col(t, j, -(s[t][j] // p))
                dirty = dirty or s[t][j] != 0
        if dirty:
            continue
        # the pivot must divide everything in the trailing block, or the
        # divisibility chain d1 | d2 | ... fails; fold an offender in
        bad = next((i for i in range(t + 1, m)
                    if any(s[i][j] % p for j in range(t + 1, n))), None)
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if p < 0:
            negate_row(t)
        t += 1
    return u, s, v



# -- per-diagram tables by per-crossing scans ------------------------------------


def _interior_regions(d: Diagram) -> list[int]:
    return sorted(r.id for r in d.regions.values()
                  if all(d.edges[abs(ref)].curve != BD
                         for cyc in r.cycles for ref in cyc))


def per_crossing_defect_system(d: Diagram) -> tuple[list[list[int]],
                                                    list[tuple[int, str]]]:
    """The defect rows and labels of ``defect_system``, with every edge
    scanned once per crossing and curve: an edge of that curve ending at the
    crossing adds its flanking interior regions (+1 on its left, -1 on its
    right), one starting there subtracts them, and a loop does neither."""
    sides = _edge_sides(d)
    col = {r: i for i, r in enumerate(_interior_regions(d))}
    rows, labels = [], []
    for v in d.crossings:
        for curve in (ALPHA, BETA):
            row = [0] * len(col)
            for e in d.edges.values():
                if e.curve != curve:
                    continue
                sign = (1 if e.head == v else 0) - (1 if e.tail == v else 0)
                if sign == 0:
                    continue
                pos, neg = sides[e.id]
                if pos in col:
                    row[col[pos]] += sign
                if neg in col:
                    row[col[neg]] -= sign
            rows.append(row)
            labels.append((v, curve))
    return rows, labels


def per_crossing_curves(d: Diagram) -> dict[int, tuple[int, int]]:
    """``Diagram.crossing_curves`` with every edge scanned once per
    crossing: the alpha and beta circle indices of the edges touching it."""
    out = {}
    for v in d.crossings:
        al = be = None
        for e in d.edges.values():
            if v in (e.tail, e.head):
                if e.curve == ALPHA:
                    al = e.index
                elif e.curve == BETA:
                    be = e.index
        out[v] = (al, be)
    return out


# -- connecting domains by a per-pair Smith solve ------------------------------


def solve(snf, ub: list[int]) -> list[int] | None:
    """One integer solution x of a x = b, or None when there is none, from
    snf = (u, s, v) = smith_normal_form(a) of a matrix a with at least one
    row and the image ub = u b of the right-hand side."""
    _, s, v = snf
    m, n = len(s), len(v)
    y = [0] * n
    for i in range(m):
        d = s[i][i] if i < min(m, n) else 0
        if d:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
        elif ub[i] != 0:
            return None
    return intlinalg.mat_vec(v, y)


def per_pair_connecting_domain(d: Diagram, x: Generator,
                               y: Generator) -> Domain | None:
    """``connecting_domain`` by one Smith solve for the pair: the image of
    its right-hand side sums the crossing images over y minus x and
    subtracts those over x minus y, and the solution is normalized against
    the echelon periodic basis."""
    crossings = set(d.crossings)
    for g in (x, y):
        if not set(g) <= crossings:
            raise ValueError(f"generator {g} uses non-crossing vertices")
    xs, ys = set(x), set(y)
    if not d.interior_regions:
        return Domain(d, ()) if xs == ys else None
    images = d.defects.images
    ub = [0] * len(d.defects.smith[0])
    for v in ys - xs:
        ub = [a + b for a, b in zip(ub, images[v])]
    for v in xs - ys:
        ub = [a - b for a, b in zip(ub, images[v])]
    sol = solve(d.defects.smith, ub)
    if sol is None:
        return None
    for b in d.defects.periodic:
        lead = next(i for i, c in enumerate(b.coeffs) if c)
        q = sol[lead] // b.coeffs[lead]
        if q:
            sol = [s - q * c for s, c in zip(sol, b.coeffs)]
    return Domain(d, sol)


def brute_force_positive_domains(d: Diagram, x: Generator, y: Generator,
                                 cap: int) -> list[tuple[int, ...]]:
    """Coefficient vectors in [0, cap]^m over the interior regions that
    connect x to y, in lexicographic order."""
    regs = d.interior_regions
    out = []
    for vec in itertools.product(range(cap + 1), repeat=len(regs)):
        if connects(d, dict(zip(regs, vec)), x, y):
            out.append(vec)
    return out


def oracle_rigid(d: Diagram, vec: tuple[int, ...], x: Generator,
                 y: Generator) -> int:
    """1 when the 0/1 vector is an embedded bigon or rectangle from x to y,
    recognized by literally gluing the region polygons along shared edges."""
    if any(c not in (0, 1) for c in vec):
        return 0
    support = [r for r, c in zip(d.interior_regions, vec) if c]
    if not support:
        return 0
    moved = (set(x) - set(y)) | (set(y) - set(x))
    if len(set(x) - set(y)) != len(set(y) - set(x)):
        return 0
    if len(set(x) - set(y)) not in (1, 2):
        return 0

    # each piece must be a polygon, and the pieces must glue like a tree
    occurrences: dict[int, list[int]] = {}
    for rid in support:
        r = d.regions[rid]
        if r.genus != 0 or len(r.cycles) != 1:
            return 0
        for ref in r.cycles[0]:
            occurrences.setdefault(abs(ref), []).append(rid)

    parent = {r: r for r in support}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    glued = 0
    for rids in occurrences.values():
        if len(rids) != 2:
            continue
        ra, rb = find(rids[0]), find(rids[1])
        if ra == rb:
            return 0  # self-gluing makes an annulus or adds genus
        parent[ra] = rb
        glued += 1
    if glued != len(support) - 1:
        return 0  # disconnected

    # quadrant census at every crossing
    inside = set(support)
    for v in d.crossings:
        quads = [c.region in inside for c in d.quadrants[v]]
        q = sum(quads)
        if v in moved:
            if q != 1:
                return 0
        elif v in set(x) & set(y):
            if q != 0:
                return 0
        elif q == 2:
            # the occupied pair must be cyclically adjacent (boundary passes
            # straight through); opposite quadrants pinch the disc
            if quads in ([True, False, True, False], [False, True, False, True]):
                return 0
        elif q not in (0, 4):
            return 0
    return 1


def brute_force_boundary_matrix(d: Diagram,
                                members: tuple[Generator, ...]) -> list[int]:
    """Mod-2 differential by enumerating every 0/1 domain and testing the
    embedded bigon/rectangle property."""
    rows = []
    for x in members:
        row = 0
        for j, y in enumerate(members):
            if x == y:
                continue
            count = sum(oracle_rigid(d, vec, x, y)
                        for vec in brute_force_positive_domains(d, x, y, 1))
            if count % 2:
                row |= 1 << j
        rows.append(row)
    return rows


# -- homological pairing invariant -------------------------------------------
#
# The Spin^c partition described without domains: connect y to x by arcs
# along the alpha circles and back along the beta circles; the loop's class
# in the first homology of the 3-manifold (curve classes and region
# boundaries killed) vanishes exactly when x and y share a class.


def _forest(d: Diagram) -> tuple[set[int], list[int]]:
    # deterministic spanning forest over the 1-skeleton; returns (tree edge
    # ids, non-tree edge ids in increasing order)
    parent = {v: v for v in d.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: set[int] = set()
    nontree: list[int] = []
    for eid in sorted(d.edges):
        e = d.edges[eid]
        a, b = find(e.tail), find(e.head)
        if a == b:
            nontree.append(eid)
        else:
            parent[a] = b
            tree.add(eid)
    return tree, nontree


def _relation_chains(d: Diagram) -> list[dict[int, int]]:
    chains = []
    for r in d.regions.values():
        chain: dict[int, int] = {}
        for cyc in r.cycles:
            for ref in cyc:
                chain[abs(ref)] = chain.get(abs(ref), 0) + (1 if ref > 0 else -1)
        chains.append(chain)
    for (curve, index), edges in sorted(d.circle_order.items()):
        if curve == BD:
            continue
        chains.append({e: 1 for e in edges})
    return chains


class PairingTable:
    """Cokernel presentation of the loop classes modulo relations.

    The group is Z^n / (column span of a), for a the n x k matrix of
    relation chains over the n non-tree edges.  It is the direct sum of
    Z/factors[i] (0 meaning a free Z summand), and proj sends a chain's
    coordinates to the group's, coordinate i read modulo factors[i].
    """

    def __init__(self, d: Diagram):
        self.diagram = d
        _, self.nontree = _forest(d)
        cols = _relation_chains(d)
        a = [[chain.get(e, 0) for chain in cols] for e in self.nontree]
        n, k = len(a), len(cols)
        if n == 0:
            self.factors, self.proj = [], []
        elif k == 0:
            self.factors, self.proj = [0] * n, intlinalg.identity(n)
        else:
            self.proj, s, _ = intlinalg.smith_normal_form(a)
            self.factors = [s[i][i] if i < min(n, k) else 0 for i in range(n)]

    def reduce(self, chain: dict[int, int]) -> tuple[int, ...]:
        coords = [chain.get(e, 0) for e in self.nontree]
        w = intlinalg.mat_vec(self.proj, coords) if coords else []
        out = []
        for val, f in zip(w, self.factors):
            if f == 1:
                continue
            out.append(val % f if f else val)
        return tuple(out)

    def group_factors(self) -> tuple[int, ...]:
        """Invariant factors of the ambient group (1s dropped, 0 is free)."""
        return tuple(f for f in self.factors if f != 1)


def _arc_chain(d: Diagram, curve: str, index: int, start: int, stop: int,
               chain: dict[int, int], sign: int) -> None:
    # walk the circle from start to stop in its own direction
    if start == stop:
        return
    order = d.circle_order[(curve, index)]
    out_at = {d.edges[e].tail: d.edges[e] for e in order}
    v = start
    for _ in range(len(order) + 1):
        e = out_at[v]
        chain[e.id] = chain.get(e.id, 0) + sign
        v = e.head
        if v == stop:
            return
    raise ValueError(f"vertex {stop} not found on {curve}({index})")


def epsilon_class(d: Diagram, x: Generator, y: Generator) -> tuple[int, ...]:
    """Obstruction to x and y sharing a class; the zero tuple means they do.

    Builds the alpha-then-beta comparison loop and reduces it in the pairing
    table.  Coordinates are canonical for a fixed diagram, so equal classes
    always produce equal tuples.
    """
    table = PairingTable(d)
    by_alpha_x = {d.crossing_curves[v][0]: v for v in x}
    by_alpha_y = {d.crossing_curves[v][0]: v for v in y}
    by_beta_x = {d.crossing_curves[v][1]: v for v in x}
    by_beta_y = {d.crossing_curves[v][1]: v for v in y}
    if set(by_alpha_x) != set(by_alpha_y) or set(by_beta_x) != set(by_beta_y):
        raise ValueError("generators do not use the same circles")
    chain: dict[int, int] = {}
    for i, vx in by_alpha_x.items():
        _arc_chain(d, ALPHA, i, by_alpha_y[i], vx, chain, +1)
    for j, vx in by_beta_x.items():
        _arc_chain(d, BETA, j, by_beta_y[j], vx, chain, -1)
    return table.reduce(chain)


def epsilon_group(d: Diagram) -> tuple[int, ...]:
    """Invariant factors of the group the pairing invariant lives in."""
    return PairingTable(d).group_factors()
