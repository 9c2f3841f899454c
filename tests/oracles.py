"""Brute-force reference implementations used to cross-check the fast paths.

Everything here recomputes from the raw cell data (edges, region cycles,
quadrants) with its own bookkeeping, deliberately avoiding the library's
matrix assembly, lattice solving, and counting code.  One exception: the
per-pair connecting domain and the per-generator potentials read the
diagram's defect rows and periodic basis, but factor the rows with their
own Smith form.  The
Smith form (``dense_smith_normal_form``, dense and fully scanned) is the
reference for the library's Hermite factorization: its diagonal names the
class keys, and the pairing invariant at the end factors a matrix of its
own with it.  Some entries are earlier forms of library code kept as
references for the faster forms that replaced them: the per-crossing
scans behind the defect rows and ``Diagram.crossing_curves``, validation
with one walk of the region cycles per table, each generator's class
key and particular solution read off the Smith form, the coset walk that
bounds only the lead row, the admissibility LP run on every periodic
lattice, the reduced echelon form of a lattice by its own echelon loop
(``reduced_columns``), the GF(2) rank that reduces against the whole basis, and d^2
over every column.  The Maslov index checked against the
defect rows (``maslov_index`` with ``defect_rhs``) is the reference for
the library's unchecked quarter-index sums, which take only domains that
connect their pair.  Each coset's nonnegative domains are also listed
from the box that its area allows (``box_walk``), with no walk at all.
The parser that reads every token on its own (``checked_parse``) is the
reference for the one-step decode of a well-formed line, and the Hermite
factorization on dense rows (``dense_hermite_factorization``) for the one
on sparse columns.
A few helpers that only tests call live here too, among them the corners
at each crossing in cyclic order (``quadrants``).
"""
from __future__ import annotations

import functools
import itertools
import re

from sfh import ratlp
from sfh.diagram import (ALPHA, BD, BETA, CROSSING, CURVE_KINDS, MARKER,
                         VERTEX_KINDS, Corner, Diagram, Edge, Generator,
                         Region, Vertex, enumerate_generators)
from sfh.domains import DefectSystem, Domain, connecting_domain
from sfh.shd import FORMAT_VERSION, ParseError, _column, _int
from sfh.spinc import _index, index_weights


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


def connects(d: Diagram, coeffs: dict[int, int], x: Generator,
             y: Generator) -> bool:
    """Direct check of the boundary-termination property at every crossing.

    The alpha part of the domain boundary must enter each crossing once more
    than it leaves exactly at y-points (and the reverse at x-points); the
    beta part the other way around.
    """
    sides = edge_sides(d)

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


# -- helpers only the tests call -------------------------------------------------


def circle_edges(d: Diagram, curve: str, index: int) -> list[int]:
    """The edge ids of one circle, sorted."""
    return sorted(e.id for e in d.edges.values()
                  if e.curve == curve and e.index == index)


def circle_order(d: Diagram) -> dict[tuple[str, int], list[int]]:
    """Each circle's edges in traversal order (head feeds next tail)."""
    out = {}
    groups: dict[tuple[str, int], list[Edge]] = {}
    for e in d.edges.values():
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


def edge_multiplicity(dom: Domain, edge_id: int) -> int:
    """Net multiplicity of the domain boundary along a directed edge."""
    pos, neg = dom.diagram.edge_sides[edge_id]
    val = 0
    if pos is not None:
        val += dom.coeff(pos)
    if neg is not None:
        val -= dom.coeff(neg)
    return val


def curve_multiplicities(dom: Domain) -> dict[tuple[str, int], int]:
    """For a periodic domain: the whole-circle coefficient per curve."""
    out = {}
    for (curve, index), order in circle_order(dom.diagram).items():
        if curve not in (ALPHA, BETA):
            continue
        vals = {edge_multiplicity(dom, e) for e in order}
        if len(vals) != 1:
            raise ValueError(
                f"multiplicity is not constant along {curve}({index}); "
                "not a periodic domain")
        out[(curve, index)] = vals.pop()
    return out


def quadrants(d: Diagram) -> dict[int, tuple[Corner, ...]]:
    """The four corners at each crossing, in cyclic quadrant order."""
    out = {}
    for v in d.crossings:
        cs = d.corners_by_vertex[v]
        succ = {c.end_in: c for c in cs}
        ordered = [cs[0]]
        while len(ordered) < 4:
            ordered.append(succ[ordered[-1].end_out])
        out[v] = tuple(ordered)
    return out


def coset_bases(d: Diagram) -> list[tuple[int, ...]]:
    """The canonical connecting domains of every ordered generator pair,
    one per periodic coset, in coefficient order."""
    gens = enumerate_generators(d)
    bases = {connecting_domain(d, x, y) for x in gens for y in gens}
    return sorted(b.coeffs for b in bases if b is not None)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(mid):
            c = ai[k]
            if c:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


def reduced_columns(vectors) -> list[list[int]]:
    """The reduced column Hermite form of the lattice the vectors span, by
    its own dense echelon loop: ``intlinalg.hermite_columns`` as it was
    before it read the form off the Hermite factorization.

    Returns the nonzero columns as new lists, each with positive leading
    entry, echeloned by leading row, and each column's entry at every later
    column's leading row reduced into [0, that column's leading entry).
    """
    cols = [list(c) for c in vectors]
    n = len(cols[0]) if cols else 0
    done = []
    for row in range(n):
        if not cols:
            break
        # gcd-reduce all columns with a nonzero entry in this row into one
        while True:
            live = [c for c in cols if c[row] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda c: abs(c[row]))
            base = live[0]
            for c in live[1:]:
                q = c[row] // base[row]
                for i in range(n):
                    c[i] -= q * base[i]
        if live:
            c = live[0]
            if c[row] < 0:
                for i in range(n):
                    c[i] = -c[i]
            # bring each earlier column's entry in this row into [0, lead);
            # c is zero above this row, so their entries at earlier leads
            # stay as they were reduced
            for prev in done:
                q = prev[row] // c[row]
                if q:
                    for i in range(row, n):
                        prev[i] -= q * c[i]
            done.append(c)
            cols.remove(c)
    return done


# -- the Smith form with dense rows and full scans ------------------------------


def dense_smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """The Smith form: (u, s, v) with s = u * a * v diagonal and u, v
    unimodular, found with dense rows and a pivot scan over the whole
    trailing block.

    Diagonal entries are nonnegative and each divides the next.  Pivoting is
    deterministic: smallest nonzero magnitude in the trailing block, ties by
    position.  The pivot is chosen again after every elimination pass; one
    kept for the whole diagonal position lets the remainder steps and folds
    grow the trailing block's entries to thousands of digits.
    """
    s = [row[:] for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u = identity(m)
    v = identity(n)

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


def dense_hermite_factorization(a: list[list[int]], n: int) -> tuple[list, list[dict[int, int]]]:
    """``intlinalg.hermite_factorization`` as written before it took
    sparse columns: the m x n matrix a as dense rows, every row scanned and
    every column of h kept dense.  Same pivot rule and arithmetic, so the
    same pivots and kernel columns."""
    m = len(a)
    cols = [[row[j] for row in a] for j in range(n)]
    us: list[dict[int, int]] = [{j: 1} for j in range(n)]
    free = list(range(n))
    pivots = []
    for i in range(m):
        live = [j for j in free if cols[j][i]]
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][i]))
            base = live[0]
            p = cols[base][i]
            terms = [(r, x) for r, x in enumerate(cols[base]) if x]
            ub = us[base].items()
            for j in live[1:]:
                h, u = cols[j], us[j]
                q = h[i] // p
                for r, x in terms:
                    h[r] -= q * x
                for k, x in ub:
                    y = u.get(k, 0) - q * x
                    if y:
                        u[k] = y
                    else:
                        del u[k]
            live = [j for j in live if cols[j][i]]
        if live:
            j = live[0]
            h, u = cols[j], us[j]
            if h[i] < 0:
                h[:] = [-x for x in h]
                us[j] = u = {k: -x for k, x in u.items()}
            pivots.append((i, h[i], [(r, x) for r, x in enumerate(h) if x], u))
            free.remove(j)
    return pivots, [us[j] for j in free]



# -- per-diagram tables by per-crossing scans ------------------------------------


def per_crossing_defect_system(d: Diagram) -> tuple[list[list[int]],
                                                    list[tuple[int, str]]]:
    """The defect rows and labels of ``defect_system``, with every edge
    scanned once per crossing and curve: an edge of that curve ending at the
    crossing adds its flanking interior regions (+1 on its left, -1 on its
    right), one starting there subtracts them, and a loop does neither."""
    sides = edge_sides(d)
    col = {r: i for i, r in enumerate(interior_regions(d))}
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


# -- validation by one walk per table -------------------------------------------


def _ref_start(e: Edge, ref: int) -> int:
    return e.tail if ref > 0 else e.head


def _ref_end(e: Edge, ref: int) -> int:
    return e.head if ref > 0 else e.tail


def corners(d: Diagram) -> list[Corner]:
    """Every corner of every region cycle, from its own walk."""
    out = []
    for r in d.regions.values():
        for cyc in r.cycles:
            for pos, ref in enumerate(cyc):
                e = d.edges[abs(ref)]
                nxt = cyc[(pos + 1) % len(cyc)]
                en = d.edges[abs(nxt)]
                v = _ref_end(e, ref)
                end_in = (e.id, "H" if ref > 0 else "T")
                end_out = (en.id, "T" if nxt > 0 else "H")
                out.append(Corner(v, r.id, end_in, end_out))
    return out


def corners_by_vertex(d: Diagram) -> dict[int, tuple[Corner, ...]]:
    """``Diagram.corners_by_vertex`` grouped from ``corners``."""
    out: dict[int, list[Corner]] = {v: [] for v in d.vertices}
    for c in corners(d):
        out[c.vertex].append(c)
    return {v: tuple(cs) for v, cs in out.items()}


def edge_sides(d: Diagram) -> dict[int, tuple[int | None, int | None]]:
    """``Diagram.edge_sides`` from its own walk: edge id -> (region
    traversing +e, region traversing -e)."""
    pos: dict[int, int | None] = {e: None for e in d.edges}
    neg: dict[int, int | None] = {e: None for e in d.edges}
    for r in d.regions.values():
        for cyc in r.cycles:
            for ref in cyc:
                if ref > 0:
                    pos[ref] = r.id
                else:
                    neg[-ref] = r.id
    return {e: (pos[e], neg[e]) for e in d.edges}


def interior_regions(d: Diagram) -> list[int]:
    """``Diagram.interior_regions`` from its own walk: the regions none of
    whose cycle references is a boundary edge."""
    out = []
    for r in d.regions.values():
        if all(d.edges[abs(ref)].curve != BD for cyc in r.cycles for ref in cyc):
            out.append(r.id)
    return sorted(out)


def touches_boundary(d: Diagram) -> dict[int, bool]:
    """region id -> whether a cycle of it runs along a boundary edge, the
    scan ``balance_report`` made before it read ``interior_regions``."""
    return {r.id: any(d.edges[abs(ref)].curve == BD
                      for cyc in r.cycles for ref in cyc)
            for r in d.regions.values()}


def validation_errors(d: Diagram) -> list[str]:
    """``Diagram.validation_errors`` as written before its cycle walk was
    merged: the continuity and edge-use pass and the corner table each walk
    the region cycles, and every crossing takes the long incidence check.
    Same stages, same messages, same order."""
    errs: list[str] = []
    for v in d.vertices.values():
        if v.id <= 0:
            errs.append(f"vertex id {v.id} is not positive")
        if v.kind not in VERTEX_KINDS:
            errs.append(f"vertex {v.id} has unknown kind {v.kind!r}")
    for e in d.edges.values():
        if e.id <= 0:
            errs.append(f"edge id {e.id} is not positive")
        if e.curve not in CURVE_KINDS:
            errs.append(f"edge {e.id} has unknown curve kind {e.curve!r}")
        if e.index <= 0:
            errs.append(f"edge {e.id} has non-positive circle index {e.index}")
        for endpoint in (e.tail, e.head):
            if endpoint not in d.vertices:
                errs.append(f"edge {e.id} references missing vertex {endpoint}")
    for r in d.regions.values():
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
                if ref == 0 or abs(ref) not in d.edges:
                    errs.append(f"region {r.id} references missing edge {ref}")
    if errs:
        return errs

    for e in d.edges.values():
        if e.curve == BD:
            for endpoint in (e.tail, e.head):
                if d.vertices[endpoint].kind != MARKER:
                    errs.append(
                        f"boundary edge {e.id} touches non-marker vertex {endpoint}")

    ends_at: dict[int, list[tuple[str, int, str, int]]] = {v: [] for v in d.vertices}
    for e in d.edges.values():
        if e.tail in ends_at:
            ends_at[e.tail].append((e.curve, e.index, "T", e.id))
        if e.head in ends_at:
            ends_at[e.head].append((e.curve, e.index, "H", e.id))
    for v in d.vertices.values():
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

    groups: dict[tuple[str, int], list[Edge]] = {}
    for e in d.edges.values():
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

    plus_use: dict[int, int] = {e: 0 for e in d.edges}
    minus_use: dict[int, int] = {e: 0 for e in d.edges}
    for r in d.regions.values():
        for cyc in r.cycles:
            for pos, ref in enumerate(cyc):
                e = d.edges[abs(ref)]
                nxt = cyc[(pos + 1) % len(cyc)]
                en = d.edges[abs(nxt)]
                if _ref_end(e, ref) != _ref_start(en, nxt):
                    errs.append(
                        f"region {r.id}: cycle breaks between refs {ref} and {nxt}")
                if ref > 0:
                    plus_use[e.id] += 1
                else:
                    minus_use[e.id] += 1
    for e in d.edges.values():
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

    by_vertex = corners_by_vertex(d)
    for v in d.vertices.values():
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
            succ = {}
            ok = True
            for c in cs:
                a_end = c.end_in if d.edges[c.end_in[0]].curve == ALPHA else c.end_out
                b_end = c.end_in if d.edges[c.end_in[0]].curve == BETA else c.end_out
                if (d.edges[a_end[0]].curve != ALPHA
                        or d.edges[b_end[0]].curve != BETA):
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


# -- the per-token reader -------------------------------------------------------


def checked_parse(text: str) -> Diagram:
    """``shd.parse`` as written before its one-step decode: every numeric
    token of every line goes through ``shd._int``.  Same diagrams, same
    errors at the same line and column.

    Lines are split with ``str.split``; a token's column is only worked out
    when an error points at it.  Integers are ``[+-]?[0-9]+`` in ASCII."""
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    regions: list[Region] = []
    name: str | None = None
    saw_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks:
            continue
        kind = toks[0]
        if kind.startswith("#"):
            m = re.match(r"#\s*name:\s*(.*\S)", raw.strip())
            if m and name is None:
                name = m.group(1)
            continue
        if not saw_header:
            if kind != "shd":
                raise ParseError("expected header 'shd 1'", lineno, _column(raw, 0))
            if len(toks) != 2 or toks[1] != str(FORMAT_VERSION):
                raise ParseError("unsupported format version", lineno,
                                 _column(raw, 1 if len(toks) > 1 else 0))
            saw_header = True
            continue
        if kind == "vertex":
            if len(toks) != 3:
                raise ParseError("vertex line needs: vertex <id> <kind>",
                                 lineno, _column(raw, 0))
            vid = _int(toks[1], "vertex id", lineno, raw, 1, positive=True)
            vkind = toks[2]
            if vkind not in VERTEX_KINDS:
                raise ParseError(f"unknown vertex kind {vkind!r}", lineno,
                                 _column(raw, 2))
            vertices.append(Vertex(vid, vkind))
        elif kind == "edge":
            if len(toks) != 6:
                raise ParseError(
                    "edge line needs: edge <id> <curve> <index> <tail> <head>",
                    lineno, _column(raw, 0))
            eid = _int(toks[1], "edge id", lineno, raw, 1, positive=True)
            curve = toks[2]
            if curve not in CURVE_KINDS:
                raise ParseError(f"unknown curve kind {curve!r}", lineno,
                                 _column(raw, 2))
            index = _int(toks[3], "circle index", lineno, raw, 3, positive=True)
            tail = _int(toks[4], "tail vertex", lineno, raw, 4, positive=True)
            head = _int(toks[5], "head vertex", lineno, raw, 5, positive=True)
            edges.append(Edge(eid, curve, index, tail, head))
        elif kind == "region":
            if len(toks) < 5 or toks[2] != "genus":
                raise ParseError(
                    "region line needs: region <id> genus <g> cycle <refs>...",
                    lineno, _column(raw, 0))
            rid = _int(toks[1], "region id", lineno, raw, 1, positive=True)
            genus = _int(toks[3], "genus", lineno, raw, 3)
            if genus < 0:
                raise ParseError("genus must be nonnegative", lineno, _column(raw, 3))
            if toks[4] != "cycle":
                raise ParseError("expected 'cycle'", lineno, _column(raw, 4))
            cycles: list[list[int]] = []
            for k in range(4, len(toks)):
                tok = toks[k]
                if tok == "cycle":
                    cycles.append([])
                    continue
                ref = _int(tok, "edge reference", lineno, raw, k)
                if ref == 0:
                    raise ParseError("edge reference cannot be 0", lineno,
                                     _column(raw, k))
                cycles[-1].append(ref)
            if any(not c for c in cycles):
                raise ParseError("empty cycle", lineno, _column(raw, 0))
            regions.append(Region(rid, genus, tuple(tuple(c) for c in cycles)))
        else:
            raise ParseError(f"unknown record {kind!r}", lineno, _column(raw, 0))

    if not saw_header:
        raise ParseError("empty input, expected header 'shd 1'", 1)
    return Diagram(vertices, edges, regions, name=name)


# -- the checked Maslov index ---------------------------------------------------


def defect_rhs(d: Diagram, x: Generator, y: Generator) -> list[int]:
    """The defect rows' right-hand side for domains from x to y, in the
    order of ``DefectSystem.labels``."""
    xs, ys = set(x), set(y)
    rhs = []
    for v in d.crossings:
        alpha_val = (1 if v in ys else 0) - (1 if v in xs else 0)
        rhs.append(alpha_val)
        rhs.append(-alpha_val)
    return rhs


def maslov_index(d: Diagram, dom: Domain, x: Generator,
                 y: Generator) -> int | None:
    """Index of a domain from x to y: Euler measure plus the two point
    measures.  None when the domain does not connect x to y."""
    rhs = defect_rhs(d, x, y)
    for row, want in zip(d.defects.rows, rhs):
        if sum(a * c for a, c in zip(row, dom.coeffs)) != want:
            return None
    return _index(index_weights(d, x, y), dom.coeffs)


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
    return mat_vec(v, y)


@functools.lru_cache(maxsize=16)
def _defect_smith(rows: tuple[tuple[int, ...], ...], n: int):
    # a zero row stands in for none
    return dense_smith_normal_form([list(r) for r in rows] or [[0] * n])


def defect_smith(d: Diagram):
    """The Smith form (u, s, v) of d's defect rows, one zero row standing in
    for none; d must have interior regions."""
    return _defect_smith(tuple(map(tuple, d.defects.rows)),
                         len(d.interior_regions))


def normalized(d: Diagram, sol: list[int]) -> Domain:
    """The representative of sol's coset of periodic domains that
    ``connecting_domain`` returns: sol reduced against each echelon
    periodic basis vector at its lead."""
    for b in d.defects.periodic:
        lead = next(i for i, c in enumerate(b) if c)
        q = sol[lead] // b[lead]
        if q:
            sol = [s - q * c for s, c in zip(sol, b)]
    return Domain(d, sol)


def per_pair_connecting_domain(d: Diagram, x: Generator,
                               y: Generator) -> Domain | None:
    """``connecting_domain`` by one Smith solve for the pair's right-hand
    side, normalized against the echelon periodic basis."""
    crossings = set(d.crossings)
    for g in (x, y):
        if not set(g) <= crossings:
            raise ValueError(f"generator {g} uses non-crossing vertices")
    if not d.interior_regions:
        return Domain(d, ()) if set(x) == set(y) else None
    snf = defect_smith(d)
    sol = solve(snf, mat_vec(snf[0], defect_rhs(d, x, y)))
    return None if sol is None else normalized(d, sol)


def dense_potential(d: Diagram, g: Generator) -> tuple[tuple, list[int]]:
    """Generator g's class key and particular solution read off the Smith
    form u a v = s: S(g) = u R(g), for R(g) the right-hand side from no
    points to g, reduced modulo the diagonal at its entries other than 1
    is the key, and v times the floor quotient is the particular solution.
    Generators with equal keys are connected, and the difference of their
    particular solutions is a domain between them."""
    if not d.interior_regions:
        return frozenset(g), []
    u, s, v = defect_smith(d)
    total = mat_vec(u, defect_rhs(d, (), g))
    n = len(v)
    diag = [s[i][i] if i < n else 0 for i in range(len(s))]
    key = tuple(t % e if e else t for t, e in zip(total, diag) if e != 1)
    quot = [t // e if e else 0 for t, e in zip(total[:n], diag)]
    return key, mat_vec(v, quot + [0] * (n - len(quot)))


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


def reference_walk(ds: DefectSystem,
                   base: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """``DefectSystem._walk`` as it bounded only the lead row: t_j ranges
    over the steps that keep row leads[j] within [0, A // w_lead], and a
    step that leaves another newly final row negative is rejected.  The
    domains are coefficient tuples, in increasing order."""
    basis, w = ds.periodic, ds.area
    leads = [next(i for i, c in enumerate(b) if c) for b in basis]
    area = sum(a * c for a, c in zip(w, base))
    cuts = [0, *leads, len(w)]
    out = []
    stack = [(base, base, iter((0,)), 0)]
    while stack:
        parent, vec, steps, j = stack[-1]
        for t in steps:
            cur = [a + t * b for a, b in zip(parent, vec)]
            if any(c < 0 for c in cur[cuts[j]:cuts[j + 1]]):
                continue
            if j == len(basis):
                out.append(tuple(cur))
                continue
            child, lead = basis[j], leads[j]
            p = child[lead]
            stack.append((cur, child, iter(range(
                -(cur[lead] // p), (area // w[lead] - cur[lead]) // p + 1)), j + 1))
            break
        else:
            stack.pop()
    out.sort()
    return tuple(out)


def box_walk(ds: DefectSystem, base: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The nonnegative domains of base's coset by enumeration, in
    lexicographic order: every vector of the box 0 <= D_r <= A // w_r (w the
    area form, A = w.base) whose difference from base lies in the periodic
    lattice.  Periodic domains have area 0, so only the box's vectors of
    area A are listed and tested; membership reduces the difference by the
    echelon basis, which must divide each lead exactly and leave 0."""
    basis, w = ds.periodic, ds.area
    area = sum(a * c for a, c in zip(w, base))
    if area < 0:
        return []

    def member(vec: list[int]) -> bool:
        for b in basis:
            lead = next(i for i, c in enumerate(b) if c)
            q, rem = divmod(vec[lead], b[lead])
            if rem:
                return False
            vec = [a - q * c for a, c in zip(vec, b)]
        return not any(vec)

    out = []

    def fill(prefix: list[int], left: int) -> None:
        r = len(prefix)
        if r == len(w):
            if not left and member([a - b for a, b in zip(prefix, base)]):
                out.append(tuple(prefix))
            return
        for c in range(min(area // w[r], left // w[r]) + 1):
            fill(prefix + [c], left - c * w[r])

    fill([], area)
    return out


def admissibility_program(ds: DefectSystem) -> ratlp.LPResult:
    """The admissibility LP for every periodic lattice, as
    ``DefectSystem._program`` built it before all-ones certified the
    lattices whose basis sums vanish: max 1.Bt over 0 <= Bt <= 1."""
    basis = ds.periodic
    bmat = list(zip(*basis))
    a_ub = [[-v for v in row] for row in bmat] + bmat
    b_ub = [0] * len(bmat) + [1] * len(bmat)
    return ratlp.maximize([sum(b) for b in basis], a_ub, b_ub)


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
    cyclic = quadrants(d)
    for v in d.crossings:
        quads = [c.region in inside for c in cyclic[v]]
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


# -- GF(2) linear algebra -------------------------------------------------------


def reference_gf2_rank(rows: list[int]) -> int:
    """GF(2) rank by reducing each row against the whole sorted basis."""
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


def dense_square(rows: list[int]) -> list[int]:
    """Row i of d^2 for the bitmask rows of d, over every column j."""
    n = len(rows)
    out = []
    for i in range(n):
        acc = 0
        for j in range(n):
            if rows[i] >> j & 1:
                acc ^= rows[j]
        out.append(acc)
    return out


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
    for (curve, index), edges in sorted(circle_order(d).items()):
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
            self.factors, self.proj = [0] * n, identity(n)
        else:
            self.proj, s, _ = dense_smith_normal_form(a)
            self.factors = [s[i][i] if i < min(n, k) else 0 for i in range(n)]

    def reduce(self, chain: dict[int, int]) -> tuple[int, ...]:
        coords = [chain.get(e, 0) for e in self.nontree]
        w = mat_vec(self.proj, coords) if coords else []
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
    order = circle_order(d)[(curve, index)]
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
