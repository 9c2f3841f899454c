"""Command line behavior: outputs, formats, and the exit code contract."""
from __future__ import annotations

import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sfh import cli, disjoint_union, sfh, shd
from sfh.builders import BUILDERS, build_example
from sfh.cli import main
from sfh.diagram import ALPHA, BD, Diagram, Edge, MARKER, Region, Vertex

ROOT = Path(__file__).resolve().parent.parent
DIAGRAMS = ROOT / "diagrams"
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


def test_undecodable_input_exit_1(capsys, monkeypatch, tmp_path):
    # a valid diagram whose name holds a byte that is not UTF-8
    raw = (DIAGRAMS / "s1s2.shd").read_bytes().replace(b"name: s1s2",
                                                        b"name: s1\xffs2")
    at = raw.index(b"\xff")
    f = tmp_path / "latin.shd"
    f.write_bytes(raw)
    code, out, err = run_fail(capsys, "compute", str(f))
    assert (code, out) == (1, "")
    assert err == (f"sfh: error: cannot decode {f} as UTF-8: "
                   f"invalid start byte at byte {at}\n")
    # stdin raises or passes the byte on as a surrogate, by locale
    for errors in ("strict", "surrogateescape"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(raw), encoding="utf-8", errors=errors))
        code, out, err = run_fail(capsys, "compute", "-")
        assert (code, out) == (1, ""), errors
        assert err == ("sfh: error: cannot decode - as UTF-8: "
                       f"invalid start byte at byte {at}\n"), errors


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


def test_wide_diagram_needs_no_recursion(capsys, tmp_path):
    # 1,200 alpha circles: one level per circle in a recursive enumeration
    # would pass the interpreter's recursion limit.  The copies are joined
    # as a balanced tree, since a chain of unions takes quadratic time.
    parts = [build_example("torus_lens", (1,)) for _ in range(1200)]
    while len(parts) > 1:
        pairs = [parts[i:i + 2] for i in range(0, len(parts), 2)]
        parts = [disjoint_union(*p) if len(p) == 2 else p[0] for p in pairs]
    (d,) = parts
    assert d.alpha_count == 1200
    assert sfh(d).signature() == "d 0 ranks 0:1; total 1"
    path = tmp_path / "wide.shd"
    path.write_text(shd.serialize(d), encoding="utf-8")
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 0
    assert out.rstrip().endswith("total 1"), out[-200:]


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


def test_one_parser_serves_every_call(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser

    def counting():
        builds.append(1)
        return build_parser()

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    argvs = [("frobnicate",), ("compute", str(DIAGRAMS / "s1s2.shd"), "--spinc"),
             ("example", "torus_lens", "x"), ("example", "torus_lens", "3"),
             ("validate", str(DIAGRAMS / "s1s2.shd"))]
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        separate = []
        for argv in argvs:
            cli._parser.cache_clear()  # as if each call were its own process
            separate.append(outcome(argv))
        cli._parser.cache_clear()
        builds.clear()
        shared = [outcome(argv) for argv in argvs]
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert shared == separate
    assert [code for code, _, _ in shared] == [11, 0, 11, 0, 0]


# -- the oldest supported Python --------------------------------------------------


def _floor_env(floor: str) -> dict[str, str]:
    """The environment to run python<floor> in.  A pyenv shim on PATH starts
    only a version pyenv has selected, so when pyenv lists an installed
    <floor>.x, PYENV_VERSION selects it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pyenv = shutil.which("pyenv")
    if pyenv:
        listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True,
                                text=True, timeout=60).stdout.split()
        found = [v for v in listed if v.startswith(floor + ".")]
        if found:
            env["PYENV_VERSION"] = found[0]
    return env


def test_oldest_supported_python_gives_the_same_output():
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"',
                      (ROOT / "pyproject.toml").read_text()).group(1)
    exe = shutil.which(f"python{floor}")
    env = _floor_env(floor)
    probe = exe and subprocess.run(
        [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        env=env, capture_output=True, text=True, timeout=60)
    if not probe or probe.returncode != 0 or probe.stdout.strip() != floor:
        pytest.skip(f"no working python{floor} on PATH")
    argv = ["-m", "sfh", "example", "torus_lens", "3", "--format", "tsv"]
    old, new = (subprocess.run([python, *argv], env=env, capture_output=True,
                               text=True, timeout=120)
                for python in (exe, sys.executable))
    assert old.returncode == new.returncode == 0, old.stderr
    assert old.stdout == new.stdout != ""
    assert old.stderr == new.stderr
