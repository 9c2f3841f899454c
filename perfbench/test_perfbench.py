"""Tests for the benchmark's own code.  Run with

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sfh import build_example, cli, disjoint_union, parse, sfh  # noqa: E402
from sfh.shd import ParseError, digest  # noqa: E402


def _digest(text: str) -> str:
    # truncated texts may not parse; their content hash serves instead
    try:
        return digest(parse(text))
    except ParseError:
        return "text:" + hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_texts(workload):
    a = workloads.make_round(workload, 7, 1)
    b = workloads.make_round(workload, 7, 1)
    assert [op.text.encode() for op in a] == [op.text.encode() for op in b]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_changes_digests_not_answers(workload):
    a = {op.case_index: op for op in workloads.make_round(workload, 1, 0)}
    b = {op.case_index: op for op in workloads.make_round(workload, 2, 0)}
    assert a.keys() == b.keys() == set(range(len(workloads.WORKLOADS[workload])))
    for ci in a:
        assert (a[ci].expected_exit, a[ci].expected) == (b[ci].expected_exit, b[ci].expected)
        assert _digest(a[ci].text) != _digest(b[ci].text)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_no_two_operations_of_a_run_share_a_digest(workload):
    ops = [op for r in range(3) for op in workloads.make_round(workload, 3, r)]
    digests = [_digest(op.text) for op in ops]
    assert len(set(digests)) == len(digests)


def test_closed_forms():
    sig = workloads.signature
    assert sig(workloads.Case((("spheres", (4,)),)).expected()) == \
        "d 0 ranks 0:1,1:3,2:3,3:1; total 8"
    union = workloads.Case((("torus_lens", (2,)), ("s1s2", ()))).expected()
    assert sig(union) == "d 0 ranks 0:1,1:1; d 0 ranks 0:1,1:1; total 4"
    assert sig(workloads.Case((("nontaut", ()), ("s1s2", ()))).expected()) == "total 0"
    # graded modulo 3: the least rotation is chosen
    assert sig([(3, {1: 2, 2: 5})]) == "d 3 ranks 0:2,1:5; total 7"
    assert workloads.Case((("hexagon", ()), ("s1s2_disjoint", ()))).expected_exit() == 2
    assert workloads.Case((("s1s2", ()),), "truncate").expected_exit() == 1


@pytest.mark.parametrize("name,params", [
    ("spheres", (3,)), ("torus_lens", (3,)), ("s1s2", ()), ("annulus_s3_2", ()),
    ("product", (1, 2)), ("nontaut", ()), ("lens_knot", (4,)),
])
def test_signature_format_matches_the_program(name, params):
    d = disjoint_union(build_example(name, params), build_example("s1s2"))
    result = sfh(d)
    ours = workloads.signature([(c.modulus, c.ranks) for c in result.classes])
    assert ours == result.signature()


def test_tsv_signature():
    table = "class\td\tgrading\trank\ns0\t0\t3\t1\ns0\t0\t4\t1\ntotal\t\t\t2\n"
    assert workloads.tsv_signature(table) == "d 0 ranks 0:1,1:1; total 2"


def test_one_round_passes_its_checks(tmp_path):
    for workload in ("corpus", "spheres"):
        loop = run.Loop(workload, sys.modules["sfh"], cli, tmp_path)
        ops = workloads.make_round(workload, 11, 0)
        if workload == "spheres":
            ops = [op for op in ops if "spheres(4)" in op.label]
        loop.run_round(ops, None)
        assert loop.failed == 0, loop.errors
        assert loop.attempted == len(ops)


def test_tracer_exact_counts_and_restores_functions():
    import sfh as api
    from sfh import domains, homology, spinc
    originals = (api.sfh, homology.positive_connecting_domains,
                 spinc.connecting_domain, domains.connecting_domain,
                 api.Diagram.validate)
    untraced = {n: sfh(build_example(*n)).signature()
                for n in [("spheres", (3,)), ("spheres", (4,)), ("torus_lens", (5,)),
                          ("lens_knot", (6,))]}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert api.sfh is not originals[0]
        traced = {}
        for key, (name, params) in enumerate(untraced):
            d = build_example(name, params)
            tracer.begin(str(key))
            traced[(name, params)] = api.sfh(d).signature()
            tracer.end()
    finally:
        tracer.uninstall()
    assert (api.sfh, homology.positive_connecting_domains, spinc.connecting_domain,
            domains.connecting_domain, api.Diagram.validate) == originals
    assert traced == untraced
    pcd = tracer.calls_per_op("domains.positive_connecting_domains")
    assert pcd["0"] == 4 * 3 and pcd["1"] == 8 * 7
    cd = tracer.calls_per_op("domains.connecting_domain")
    assert cd["2"] == 5 * 4 // 2 and cd["3"] == 6 * 5 // 2
    summary = tracer.summary()
    assert summary["homology.sfh.calls"] == 4
    assert summary["diagram.enumerate_generators.generators"] == 4 + 8 + 5 + 6
    # self times partition each operation's time
    self_total = sum(span[5] for span in tracer.spans)
    assert self_total == pytest.approx(summary["operation.wall_s"], rel=1e-6)


def test_tail_percentile_falls_back_for_short_runs():
    durations = [float(i) for i in range(1, 101)]
    pct, value, beyond = run.tail(durations, "spheres")
    assert pct == workloads.TAIL_PERCENTILE["spheres"] and beyond == 100 - pct
    pct, value, beyond = run.tail(durations[:40], "spheres")
    assert pct == 75 and beyond >= 10
