"""Validation's one walk over the region cycles against the walk-per-table
form kept in ``tests/oracles.py``.

Both give the same messages in the same order.  On a diagram that passes,
the tables the walk leaves behind (``corners_by_vertex``, ``edge_sides``,
``interior_regions``) equal the oracle's, and so does the boundary contact
``balance_report`` reads from them.  The inputs are the builder families
with their move variants, deterministic corruptions of each, and a
derandomized ``hypothesis`` mutation of the packaged ``diagrams/*.shd``.
"""
from __future__ import annotations

import pathlib

import pytest

from sfh.diagram import (ALPHA, BD, BETA, CROSSING, MARKER, Diagram, Edge,
                         Region, Vertex)
from sfh.shd import ParseError, parse

import oracles
from test_domains import _area_variants
from test_homology import _nice_variants


def _fresh(d: Diagram) -> Diagram:
    return Diagram(d.vertices.values(), d.edges.values(), d.regions.values(),
                   name=d.name)


def check_against_oracle(d: Diagram) -> list[str]:
    """Validate a fresh copy of d both ways and compare; returns the messages."""
    d = _fresh(d)
    errs = d.validation_errors()
    assert errs == oracles.validation_errors(d)
    if not errs:
        assert d.corners_by_vertex == oracles.corners_by_vertex(d)
        assert d.edge_sides == oracles.edge_sides(d)
        assert d.interior_regions == oracles.interior_regions(d)
        inner = set(d.interior_regions)
        assert ({r: r not in inner for r in d.regions}
                == oracles.touches_boundary(d))
    return errs


def _swap_kind(kind: str) -> str:
    return {ALPHA: BETA, BETA: ALPHA, BD: ALPHA,
            CROSSING: MARKER, MARKER: CROSSING}[kind]


def _corruptions(d: Diagram):
    """Copies of d with one edit each: most break one invariant, and
    rotating a cycle keeps the diagram valid but reorders its corners."""
    vs, es = list(d.vertices.values()), list(d.edges.values())
    rs = list(d.regions.values())
    first, last = rs[0], rs[-1]

    def with_region(r):
        return [r if x.id == r.id else x for x in rs]

    cyc = first.cycles[0]
    yield vs, es, [r for r in rs if r.id != first.id]
    yield vs, es, with_region(Region(first.id, first.genus,
                                     (cyc[1:] + cyc[:1],) + first.cycles[1:]))
    yield vs, es, with_region(Region(first.id, first.genus,
                                     (cyc[::-1],) + first.cycles[1:]))
    yield vs, es, with_region(Region(first.id, first.genus,
                                     ((-cyc[0],) + cyc[1:],) + first.cycles[1:]))
    yield vs, es, with_region(Region(last.id, last.genus, last.cycles + (cyc,)))
    e = es[len(es) // 2]
    yield vs, [x if x is not e else Edge(e.id, e.curve, e.index, e.head, e.tail)
               for x in es], rs
    yield vs, [x if x is not e else Edge(e.id, _swap_kind(e.curve), e.index,
                                         e.tail, e.head) for x in es], rs
    yield vs, [x for x in es if x is not e], rs
    v = vs[0]
    yield [x if x is not v else Vertex(v.id, _swap_kind(v.kind)) for x in vs], es, rs
    if len(rs) > 1:
        # two regions trade their first cycles
        a, b = rs[0], rs[1]
        yield vs, es, [Region(a.id, a.genus, b.cycles[:1] + a.cycles[1:]),
                       Region(b.id, b.genus, a.cycles[:1] + b.cycles[1:])] + rs[2:]
    # an alpha or beta edge's head moved to another vertex
    e = next((x for x in es if x.curve in (ALPHA, BETA)), None)
    others = [x.id for x in vs if e and x.id not in (e.tail, e.head)]
    if others:
        yield vs, [x if x is not e else Edge(e.id, e.curve, e.index, e.tail,
                                             others[0]) for x in es], rs
    # per curve kind with two circles: one edge moved to the other circle,
    # and the whole circle given the other's index, two disjoint loops
    # sharing one index
    indices: dict[str, set[int]] = {}
    for x in es:
        indices.setdefault(x.curve, set()).add(x.index)
    for curve, held in sorted(indices.items()):
        if len(held) < 2:
            continue
        old, new = sorted(held)[:2]
        e = next(x for x in es if (x.curve, x.index) == (curve, old))
        yield vs, [x if x is not e else Edge(e.id, curve, new, e.tail, e.head)
                   for x in es], rs
        yield vs, [Edge(x.id, curve, new, x.tail, x.head)
                   if (x.curve, x.index) == (curve, old) else x for x in es], rs


def _rewired(d: Diagram, v: int, swap: bool) -> Diagram:
    """d with the region cycles re-paired at vertex v, one region per new
    cycle.  The references arriving at v, ordered by curve, hand on their
    successors shifted by one (swap: the first two, on one curve at a
    crossing, trade theirs), so continuity and edge use still hold and only
    the corner checks can object."""
    succ = {}
    for r in d.regions.values():
        for cyc in r.cycles:
            succ.update(zip(cyc, cyc[1:] + cyc[:1]))
    edges = d.edges

    def end(ref):
        return edges[ref].head if ref > 0 else edges[-ref].tail

    arriving = sorted((ref for ref in succ if end(ref) == v),
                      key=lambda ref: (edges[abs(ref)].curve, ref))
    handed = [succ[ref] for ref in arriving]
    handed = handed[1::-1] + handed[2:] if swap else handed[1:] + handed[:1]
    succ.update(zip(arriving, handed))
    cycles, seen = [], set()
    for start in sorted(succ):
        if start in seen:
            continue
        cyc, ref = [], start
        while ref not in seen:
            seen.add(ref)
            cyc.append(ref)
            ref = succ[ref]
        cycles.append(tuple(cyc))
    return Diagram(d.vertices.values(), d.edges.values(),
                   [Region(i, 0, (c,)) for i, c in enumerate(cycles, start=1)])


def test_builder_families_and_corruptions_match_the_oracle():
    valid = invalid = 0
    corner_stage = set()
    circle_stage = []
    for d in [*_area_variants(), *_nice_variants()]:
        assert check_against_oracle(d) == [], d.name
        valid += 1
        for vertices, edges, regions in _corruptions(d):
            errs = check_against_oracle(Diagram(vertices, edges, regions))
            invalid += bool(errs)
            circle_stage += [m.split(") ", 1)[-1] for m in errs
                             if m.startswith("circle ")]
        for v in d.crossings[:2] + d.markers[:1]:
            for swap in (False, True):
                errs = check_against_oracle(_rewired(d, v, swap))
                invalid += bool(errs)
                corner_stage.update(m.split(": ", 1)[-1] for m in errs
                                    if "corner" in m or "quadrants" in m)
    assert valid == 80
    assert invalid > 800
    # once incidence holds, each vertex of a circle has one of its edges
    # arriving and one leaving, so a circle can only fall apart into loops:
    # neither the walk nor the oracle ever reports a branch or an open end
    assert set(circle_stage) == {"is not a single closed loop"}, circle_stage
    assert len(circle_stage) > 100, len(circle_stage)
    # the walk's corner table reaches every corner check a rewiring can fail
    assert corner_stage == {
        "corner joins two ends of the same curve",
        "quadrants do not close into a single cycle",
        "corner does not pass straight through"}, corner_stage


# -- mutated packaged files ---------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DIAGRAM_DIR = pathlib.Path(__file__).resolve().parent.parent / "diagrams"
FILES = sorted(p.read_text(encoding="utf-8") for p in DIAGRAM_DIR.glob("*.shd"))
KINDS = (ALPHA, BETA, BD, CROSSING, MARKER)


def _mutate(data, text: str) -> str:
    # edits that keep each line parseable, so most texts reach validation
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        toks = lines[at].split()
        numbers = [k for k, t in enumerate(toks) if t.lstrip("+-").isdigit()]
        op = data.draw(st.sampled_from(
            ("renumber", "negate", "swap", "drop_ref", "kind", "drop_line",
             "copy_line")), label="op")
        if op in ("renumber", "negate", "swap", "drop_ref") and numbers:
            k = data.draw(st.sampled_from(numbers), label="token")
            if op == "renumber":
                toks[k] = str(data.draw(st.integers(1, 12), label="value"))
            elif op == "negate":
                toks[k] = str(-int(toks[k]))
            elif op == "swap":
                j = data.draw(st.sampled_from(numbers), label="other")
                toks[k], toks[j] = toks[j], toks[k]
            elif toks[0] == "region" and k > 4 and toks[k - 1] != "cycle":
                del toks[k]
            lines[at] = " ".join(toks)
        elif op == "kind":
            kinds = [k for k, t in enumerate(toks) if t in KINDS]
            if kinds:
                k = data.draw(st.sampled_from(kinds), label="token")
                toks[k] = data.draw(st.sampled_from(KINDS), label="kind")
                lines[at] = " ".join(toks)
        elif op == "drop_line" and len(lines) > 1 and at > 0:
            del lines[at]
        elif op == "copy_line" and at > 0:
            to = data.draw(st.integers(1, len(lines)), label="to")
            lines.insert(to, lines[at])
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_files_match_the_oracle(data):
    text = _mutate(data, data.draw(st.sampled_from(FILES), label="file"))
    try:
        d = parse(text)
    except (ParseError, ValueError):
        return
    check_against_oracle(d)
