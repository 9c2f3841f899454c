"""Text format: round trips, canonical form, golden files, parse errors."""
from __future__ import annotations

import pathlib

import pytest

from sfh import shd
from sfh.builders import BUILDERS, build_example
from sfh.diagram import InvalidDiagramError

from oracles import checked_parse

DIAGRAM_DIR = pathlib.Path(__file__).resolve().parent.parent / "diagrams"

GOLDEN = {
    "annulus_s3_2.shd": ("annulus_s3_2", []),
    "hexagon.shd": ("hexagon", []),
    "lens_knot_3.shd": ("lens_knot", [3]),
    "nontaut.shd": ("nontaut", []),
    "product_1_1.shd": ("product", [1, 1]),
    "s1s2.shd": ("s1s2", []),
    "s1s2_disjoint.shd": ("s1s2_disjoint", []),
    "spheres_3.shd": ("spheres", [3]),
    "torus_lens_3.shd": ("torus_lens", [3]),
}


def all_builder_diagrams():
    for name, spec in sorted(BUILDERS.items()):
        yield build_example(name, list(spec.defaults))


def test_round_trip_is_identity():
    for d in all_builder_diagrams():
        text = shd.serialize(d)
        d2 = shd.parse(text)
        assert shd.serialize(d2) == text
        assert d2.name == d.name
        assert d2.vertices == d.vertices
        assert d2.edges == d.edges
        assert {r.id: (r.genus, r.cycles) for r in d2.regions.values()} == {
            r.id: (r.genus, r.cycles) for r in d.regions.values()}


def test_serialize_is_canonical():
    d = build_example("s1s2", [])
    text = shd.serialize(d)
    # shuffled record order and noise collapse back to the same canonical text
    lines = text.splitlines()
    header, rest = lines[0], lines[1:]
    noisy = "\n".join([header, "", "# a comment"] + rest[::-1] + [""])
    assert shd.serialize(shd.parse(noisy)) == text


def test_digest_stability():
    d = build_example("s1s2", [])
    assert shd.digest(d) == shd.digest(shd.parse(shd.serialize(d)))
    assert len(shd.digest(d)) == 12
    # the name participates in the fingerprint
    renamed = shd.parse(shd.serialize(d).replace("# name: s1s2", "# name: other"))
    assert shd.digest(renamed) != shd.digest(d)


def test_golden_files_match_builders():
    found = {p.name for p in DIAGRAM_DIR.glob("*.shd")}
    assert found == set(GOLDEN)
    for fname, (builder, params) in GOLDEN.items():
        on_disk = (DIAGRAM_DIR / fname).read_text(encoding="utf-8")
        assert on_disk == shd.serialize(build_example(builder, params)), fname
        shd.parse(on_disk).validate()


def test_save_load(tmp_path):
    d = build_example("torus_lens", [2])
    path = tmp_path / "t.shd"
    shd.save(str(path), d)
    d2 = shd.load(str(path))
    assert shd.digest(d2) == shd.digest(d)


def parse_error(text):
    with pytest.raises(shd.ParseError) as ei:
        shd.parse(text)
    return ei.value


# (text, message, line, column) for every error parse raises; indented
# lines, tabs and runs of blanks pin the columns the tokenizer reports
PARSE_ERRORS = [
    ("", "empty input, expected header 'shd 1'", 1, 1),
    ("\n\n# only comments\n", "empty input, expected header 'shd 1'", 1, 1),
    ("nope 1\n", "expected header 'shd 1'", 1, 1),
    ("   nope 1\n", "expected header 'shd 1'", 1, 4),
    ("shd 9\n", "unsupported format version", 1, 5),
    ("shd\n", "unsupported format version", 1, 1),
    ("  shd   1 extra\n", "unsupported format version", 1, 9),
    ("\tshd  2\n", "unsupported format version", 1, 7),
    ("shd 1\nvertex 1\n", "vertex line needs: vertex <id> <kind>", 2, 1),
    ("shd 1\n\tvertex 1 crossing extra\n",
     "vertex line needs: vertex <id> <kind>", 2, 2),
    ("shd 1\nvertex x crossing\n", "vertex id must be an integer, got 'x'", 2, 8),
    ("shd 1\n  vertex   x crossing\n",
     "vertex id must be an integer, got 'x'", 2, 12),
    ("shd 1\nvertex 0 crossing\n", "vertex id must be positive, got 0", 2, 8),
    ("shd 1\n vertex  -3 crossing\n", "vertex id must be positive, got -3", 2, 10),
    ("shd 1\nvertex 1 blob\n", "unknown vertex kind 'blob'", 2, 10),
    ("shd 1\nvertex 1   \tblob\n", "unknown vertex kind 'blob'", 2, 13),
    ("shd 1\nedge 1 alpha 1 2\n",
     "edge line needs: edge <id> <curve> <index> <tail> <head>", 2, 1),
    ("shd 1\n   edge 1 alpha 1 2 3 4\n",
     "edge line needs: edge <id> <curve> <index> <tail> <head>", 2, 4),
    ("shd 1\nedge x alpha 1 2 3\n", "edge id must be an integer, got 'x'", 2, 6),
    ("shd 1\nedge 1 gamma 1 2 3\n", "unknown curve kind 'gamma'", 2, 8),
    ("shd 1\nedge 1  \t gamma 1 2 3\n", "unknown curve kind 'gamma'", 2, 11),
    ("shd 1\nedge 1 alpha 0 2 3\n", "circle index must be positive, got 0", 2, 14),
    ("shd 1\nedge 1 alpha 1  two 3\n",
     "tail vertex must be an integer, got 'two'", 2, 17),
    ("shd 1\nedge 1 alpha 1 2     -3\n", "head vertex must be positive, got -3", 2, 22),
    ("shd 1\nregion 1 genus 0\n",
     "region line needs: region <id> genus <g> cycle <refs>...", 2, 1),
    ("shd 1\n region 1 gens 0 cycle 1\n",
     "region line needs: region <id> genus <g> cycle <refs>...", 2, 2),
    ("shd 1\nregion one genus 0 cycle 1\n",
     "region id must be an integer, got 'one'", 2, 8),
    ("shd 1\nregion 1 genus g cycle 1\n", "genus must be an integer, got 'g'", 2, 16),
    ("shd 1\nregion 1 genus -1 cycle 1\n", "genus must be nonnegative", 2, 16),
    ("shd 1\n  region 1   genus   -1 cycle 1\n", "genus must be nonnegative", 2, 22),
    ("shd 1\nregion 1 genus 0 cycles 1\n", "expected 'cycle'", 2, 18),
    ("shd 1\nregion 1 genus 0  1 cycle\n", "expected 'cycle'", 2, 19),
    ("shd 1\nregion 1 genus 0 cycle 0\n", "edge reference cannot be 0", 2, 24),
    ("shd 1\nregion 1 genus 0 cycle +1  \t +0\n", "edge reference cannot be 0", 2, 30),
    ("shd 1\nregion 1 genus 0 cycle 1 x\n",
     "edge reference must be an integer, got 'x'", 2, 26),
    ("shd 1\nregion 1 genus 0 cycle ++1\n",
     "edge reference must be an integer, got '++1'", 2, 24),
    ("shd 1\nregion 1 genus 0 cycle +1 +-1\n",
     "edge reference must be an integer, got '+-1'", 2, 27),
    ("shd 1\nvertex 0_1 crossing\n", "vertex id must be an integer, got '0_1'", 2, 8),
    ("shd 1\nvertex \uff11 crossing\n",
     "vertex id must be an integer, got '\uff11'", 2, 8),
    ("shd 1\n# name: caf\u00e9\nedge 1 alpha 1 2 \u0663\n",
     "head vertex must be an integer, got '\u0663'", 3, 18),
    ("shd 1\nregion 1 genus 0 cycle +1 -2_0 cycle 3\n",
     "edge reference must be an integer, got '-2_0'", 2, 27),
    ("shd 1\nregion 1 genus 0 cycle\n", "empty cycle", 2, 1),
    ("shd 1\n\tregion 1 genus 0 cycle 1 cycle\n", "empty cycle", 2, 2),
    ("shd 1\nwidget 1\n", "unknown record 'widget'", 2, 1),
    ("shd 1\n\n   widget 1\n", "unknown record 'widget'", 3, 4),
    ("shd 1\n\t\twidget\n", "unknown record 'widget'", 2, 3),
]


def test_parse_error_positions():
    for text, message, line, column in PARSE_ERRORS:
        err = parse_error(text)
        assert (err.line, err.column) == (line, column), text
        assert str(err) == f"line {line}, column {column}: {message}"


def test_parse_accepts_plus_signs_and_comments():
    d = shd.parse(
        "shd 1\n"
        "# name: loop\n"
        "vertex 1 marker\n"
        "vertex 2 marker\n"
        "edge 1 alpha 1 1 1\n"
        "edge 2 bd 1 2 2\n"
        "region 1 genus 0 cycle +1\n"
        "region 2 genus 0 cycle -1 cycle +2\n"
    )
    d.validate()
    assert d.name == "loop"
    assert d.regions[2].cycles == ((-1,), (2,))


def read_outcome(parse, text):
    """The serialized diagram parse makes of text, or its error's message,
    with the line and column of a ParseError."""
    try:
        return shd.serialize(parse(text))
    except shd.ParseError as exc:
        return str(exc), exc.line, exc.column
    except InvalidDiagramError as exc:
        return str(exc)


def test_single_edits_read_as_the_reference_parser_reads_them():
    # every token of the packaged files replaced by one word of each error
    # the format has, or deleted, and every line rejoined with a non-ASCII
    # blank, which the one-step decode leaves to the per-token reader
    words = ("0", "-1", "+0", "0_1", "\uff11", "x", "cycle")
    texts = 0
    for path in sorted(DIAGRAM_DIR.glob("*.shd")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for at, line in enumerate(lines):
            toks = line.split()
            edits = ["\u3000".join(toks)]
            for k in range(len(toks)):
                edits += [" ".join(toks[:k] + [w] + toks[k + 1:])
                          for w in words]
                edits.append(" ".join(toks[:k] + toks[k + 1:]))
            for edit in edits:
                text = "\n".join(lines[:at] + [edit] + lines[at + 1:])
                assert read_outcome(shd.parse, text) == \
                    read_outcome(checked_parse, text), (path.name, edit)
                texts += 1
    assert texts > 6000
