"""Command line behavior: outputs, formats, and the exit code contract."""
from __future__ import annotations

import io
from pathlib import Path

import pytest

from sfh import shd
from sfh.builders import BUILDERS, build_example
from sfh.cli import main
from sfh.diagram import ALPHA, BD, Diagram, Edge, MARKER, Region, Vertex

DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"
GOLDENS = Path(__file__).resolve().parent / "goldens"


def golden(name: str) -> str:
    return (GOLDENS / name).read_text()


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_fail(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


# -- validate -------------------------------------------------------------------


def test_validate_table(capsys):
    code, out, err = run(capsys, "validate", str(DIAGRAMS / "s1s2.shd"))
    assert code == 0
    assert out == golden("s1s2_validate.txt")
    assert err == ""


def test_validate_reads_stdin(capsys, monkeypatch):
    text = (DIAGRAMS / "s1s2.shd").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert "digest: 6c8a980084d7" in out
    assert out.endswith("ok\n")


def unbalanced_text() -> str:
    # a disk carrying one alpha circle and no beta circle: structurally
    # valid, so only the balance line complains
    d = Diagram(
        [Vertex(1, MARKER), Vertex(2, MARKER)],
        [Edge(1, ALPHA, 1, 1, 1), Edge(2, BD, 1, 2, 2)],
        [Region(1, 0, ((1,),)), Region(2, 0, ((-1,), (2,)))],
        name="lopsided")
    return shd.serialize(d)


def test_validate_reports_imbalance(capsys, tmp_path):
    f = tmp_path / "lopsided.shd"
    f.write_text(unbalanced_text())
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 0  # validate reports balance, only structure is fatal
    assert "balanced: no (1 alpha circles vs 0 beta circles" in out
    assert "misses the boundary" in out


def test_validate_parse_error_exit_1(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("shd 9\n"))
    code, _, err = run_fail(capsys, "validate", "-")
    assert code == 1
    assert err.startswith("sfh: error:")
    assert "version" in err


def test_validate_missing_file_exit_10(capsys):
    code, _, err = run_fail(capsys, "validate", "nope.shd")
    assert code == 10
    assert "cannot read nope.shd" in err


# -- compute --------------------------------------------------------------------


def test_compute_table(capsys):
    code, out, err = run(capsys, "compute", str(DIAGRAMS / "s1s2.shd"),
                         "--spinc", "--gradings")
    assert code == 0
    assert out == golden("s1s2_compute_table.txt")
    assert err == ""


def test_compute_tsv_splits_streams(capsys):
    code, out, err = run(capsys, "compute", str(DIAGRAMS / "s1s2.shd"),
                         "--format", "tsv")
    assert code == 0
    assert out == golden("s1s2_compute.tsv")
    assert "admissible: yes" in err and "nice: yes" in err
    assert "\t" not in err


def test_compute_not_admissible_exit_2(capsys):
    code, out, err = run_fail(capsys, "compute",
                              str(DIAGRAMS / "s1s2_disjoint.shd"))
    assert code == 2
    assert "admissible: no (positive periodic domain r1:1)" in out
    assert err == "sfh: error: diagram is not admissible\n"


def test_compute_not_nice_exit_3(capsys):
    code, out, err = run_fail(capsys, "compute", str(DIAGRAMS / "hexagon.shd"))
    assert code == 3
    assert "nice: no (interior region 1 has 6 corners; want 2 or 4)" in out
    assert err == "sfh: error: diagram is not nice\n"


def test_compute_unbalanced_exit_1(capsys, tmp_path):
    f = tmp_path / "lopsided.shd"
    f.write_text(unbalanced_text())
    code, out, err = run_fail(capsys, "compute", str(f))
    assert code == 1
    assert "balanced: no" in out
    assert "not balanced" in err


# -- example --------------------------------------------------------------------


def test_example_list(capsys):
    code, out, _ = run(capsys, "example", "--list")
    assert code == 0
    assert out == golden("example_list.txt")
    names = [line.split()[0] for line in out.splitlines()]
    assert names == sorted(BUILDERS)


def test_example_compute(capsys):
    code, out, _ = run(capsys, "example", "torus_lens", "3")
    assert code == 0
    assert "input: torus_lens(3)" in out
    assert out.endswith("total 3\n")


def test_example_emit_matches_packaged_file(capsys):
    code, out, _ = run(capsys, "example", "s1s2", "--emit")
    assert code == 0
    assert out == (DIAGRAMS / "s1s2.shd").read_text()


def test_example_usage_errors(capsys):
    code, _, err = run_fail(capsys, "example", "wat")
    assert code == 11
    assert "unknown example 'wat'" in err
    code, _, err = run_fail(capsys, "example")
    assert code == 11
    assert "example name required" in err
    code, _, err = run_fail(capsys, "example", "product", "1", "2", "3")
    assert code == 11
    assert "at most 2 parameters" in err
    code, _, err = run_fail(capsys, "example", "torus_lens", "0")
    assert code == 11


def test_example_pads_missing_params_with_defaults(capsys):
    # "product 2" means product(2, 1): trailing defaults fill in
    code, out, _ = run(capsys, "example", "product", "2")
    assert code == 0
    assert "input: product(2,1)" in out


def test_unknown_subcommand_exit_11(capsys):
    code, _, err = run_fail(capsys, "frobnicate")
    assert code == 11
    assert "invalid choice" in err
