"""Plain-text diagram format.

A file is a header line `shd 1`, then one line per vertex, edge, and region.
Blank lines are skipped; `#` starts a comment line.  A comment of the form
`# name: <text>` names the diagram.  Example:

    shd 1
    # name: round annulus
    vertex 1 marker
    edge 1 bd 1 1 1
    region 1 genus 0 cycle +1

Canonical output sorts vertices, edges, regions by id, writes explicit
signs on cycle references, single spaces, and a trailing newline.

After the header, a vertex, edge or region line that is ASCII and holds no
``_`` is decoded in one step: on its tokens ``int()`` accepts exactly
``[+-]?[0-9]+``, so each is read with ``int()`` and the record's range and
kind checks are made once.  A line this step refuses is read again token
by token, which raises the ``ParseError`` with its line and column; that
reader serves only to word errors (and lines split by non-ASCII blanks).
"""
from __future__ import annotations

import hashlib
import re

from .diagram import Diagram, Edge, Region, Vertex, CURVE_KINDS, VERTEX_KINDS

FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN = re.compile(r"\S+")


def _column(raw: str, k: int) -> int:
    """1-based column of the k-th whitespace-separated token of raw."""
    return [m.start() + 1 for m in _TOKEN.finditer(raw)][k]


def _int(tok: str, what: str, line: int, raw: str, k: int,
         positive: bool = False) -> int:
    try:
        # on a whitespace-free token, int() takes ASCII [+-]?[0-9]+ plus
        # underscores and non-ASCII digits; the format allows only the former
        if "_" in tok or not tok.isascii():
            raise ValueError
        val = int(tok)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {tok!r}", line,
                         _column(raw, k)) from None
    if positive and val <= 0:
        raise ParseError(f"{what} must be positive, got {val}", line, _column(raw, k))
    return val


def parse(text: str) -> Diagram:
    """Parse diagram text.  Raises ParseError with line and column.

    Lines are split with ``str.split``; a token's column is only worked out
    when an error points at it.  Integers are ``[+-]?[0-9]+`` in ASCII.  A
    record line is decoded in one step when it can be (see the module
    docstring), else token by token."""
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
        if saw_header and raw.isascii() and "_" not in raw:
            # one-step decode; a line it refuses is read again below, token
            # by token, which words the error
            try:
                if kind == "edge" and len(toks) == 6:
                    rec = Edge(int(toks[1]), toks[2], int(toks[3]),
                               int(toks[4]), int(toks[5]))
                    if (rec.id > 0 and rec.index > 0 and rec.tail > 0
                            and rec.head > 0 and rec.curve in CURVE_KINDS):
                        edges.append(rec)
                        continue
                elif kind == "vertex" and len(toks) == 3:
                    rec = Vertex(int(toks[1]), toks[2])
                    if rec.id > 0 and rec.kind in VERTEX_KINDS:
                        vertices.append(rec)
                        continue
                elif (kind == "region" and len(toks) > 4
                      and toks[2] == "genus" and toks[4] == "cycle"):
                    cycles = []
                    for tok in toks[4:]:
                        if tok == "cycle":
                            cycles.append(cyc := [])
                        else:
                            cyc.append(int(tok))
                    rec = Region(int(toks[1]), int(toks[3]),
                                 tuple(map(tuple, cycles)))
                    if (rec.id > 0 and rec.genus >= 0
                            and all(c and 0 not in c for c in cycles)):
                        regions.append(rec)
                        continue
            except ValueError:
                pass
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


def serialize(d: Diagram) -> str:
    """Canonical text for a diagram: stable under parse/serialize round trips."""
    lines = [f"shd {FORMAT_VERSION}"]
    if d.name:
        lines.append(f"# name: {d.name}")
    for vid in sorted(d.vertices):
        v = d.vertices[vid]
        lines.append(f"vertex {v.id} {v.kind}")
    for eid in sorted(d.edges):
        e = d.edges[eid]
        lines.append(f"edge {e.id} {e.curve} {e.index} {e.tail} {e.head}")
    for rid in sorted(d.regions):
        r = d.regions[rid]
        parts = [f"region {r.id} genus {r.genus}"]
        for cyc in r.cycles:
            parts.append("cycle " + " ".join(f"{ref:+d}" for ref in cyc))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def digest(d: Diagram) -> str:
    """Short stable fingerprint of the diagram's canonical form (name included)."""
    return hashlib.sha256(serialize(d).encode()).hexdigest()[:12]


def load(path: str) -> Diagram:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save(path: str, d: Diagram) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(d))
