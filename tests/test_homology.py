"""Rigid counting, the GF(2) complex, and homology ranks on the corpus."""
from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from sfh import cli, intlinalg
from sfh.builders import build_example
from sfh.diagram import (ALPHA, BD, Diagram, Edge, InvalidDiagramError, MARKER,
                         NotBalancedError, Region, Vertex, enumerate_generators)
from sfh.domains import (Domain, NotAdmissibleError, connecting_domain,
                         positive_connecting_domains)
from sfh.homology import (ClassHomology, NotNiceError, SFHResult, _rigid,
                          boundary_matrix, class_homology, is_nice,
                          niceness_report, require_nice, sfh,
                          verify_d_squared)
from sfh.moves import disjoint_union
from sfh.spinc import maslov_index, relative_gradings, spinc_partition

from oracles import brute_force_boundary_matrix, oracle_rigid

NICE_CORPUS = [
    ("product", [1, 1]),
    ("torus_lens", [1]),
    ("torus_lens", [3]),
    ("s1s2", []),
    ("annulus_s3_2", []),
    ("spheres", [2]),
    ("spheres", [3]),
    ("lens_knot", [3]),
    ("nontaut", []),
]


# -- niceness -------------------------------------------------------------------


def test_niceness_catalog():
    for name, params in NICE_CORPUS:
        d = build_example(name, params)
        assert is_nice(d), (name, niceness_report(d))
        require_nice(d)


def test_hexagon_is_not_nice():
    d = build_example("hexagon", [])
    report = niceness_report(d)
    assert report == ["interior region 1 has 6 corners; want 2 or 4"]
    assert not is_nice(d)
    with pytest.raises(NotNiceError, match="6 corners"):
        require_nice(d)


def test_niceness_flags_genus_and_extra_cycles():
    # genus bump on an interior region
    d = build_example("s1s2", [])
    rs = [Region(r.id, 1, r.cycles) if r.id == 1 else r
          for r in d.regions.values()]
    bumped = Diagram(list(d.vertices.values()), list(d.edges.values()), rs)
    assert "interior region 1 has genus 1" in niceness_report(bumped)


# -- rigid counting -------------------------------------------------------------


def test_rigid_count_bigons():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    assert _rigid(d, Domain.from_dict(d, {1: 1}), y, x) == 1
    assert _rigid(d, Domain.from_dict(d, {2: 1}), y, x) == 1


def test_rigid_count_rectangles(grid2):
    x, y = enumerate_generators(grid2)
    assert _rigid(grid2, Domain.from_dict(grid2, {1: 1}), x, y) == 1
    assert _rigid(grid2, Domain.from_dict(grid2, {2: 1}), x, y) == 1


def test_rigid_matches_polygon_gluing_oracle():
    # compare on every nonnegative index-1 domain in the nice corpus
    for name, params in NICE_CORPUS:
        d = build_example(name, params)
        gens = enumerate_generators(d)
        for x, y in itertools.permutations(gens, 2):
            for dom in positive_connecting_domains(d, x, y, maslov=1):
                got = _rigid(d, dom, x, y)
                want = oracle_rigid(d, dom.coeffs, x, y)
                assert got == want, (name, x, y, dom.describe())


# -- boundary matrix -------------------------------------------------------------


def test_boundary_matrix_s1s2():
    d = build_example("s1s2", [])
    (cls,) = spinc_partition(d)
    # two bigons from the top generator cancel mod 2
    assert boundary_matrix(d, cls.members) == [0, 0]


def test_boundary_matrix_grid(grid2):
    (cls,) = spinc_partition(grid2)
    assert boundary_matrix(grid2, cls.members) == [0, 0]


def test_boundary_matrix_matches_oracle():
    for name, params in NICE_CORPUS:
        d = build_example(name, params)
        for cls in spinc_partition(d):
            got = boundary_matrix(d, cls.members)
            want = brute_force_boundary_matrix(d, cls.members)
            assert got == want, name


def test_boundary_drops_grading_by_one():
    for name, params in NICE_CORPUS:
        d = build_example(name, params)
        for cls in spinc_partition(d):
            grades = relative_gradings(d, cls.members)
            rows = boundary_matrix(d, cls.members)
            for i, x in enumerate(cls.members):
                for j, y in enumerate(cls.members):
                    if rows[i] >> j & 1:
                        assert grades[x] - grades[y] == 1


def test_verify_d_squared_corpus():
    for name, params in NICE_CORPUS:
        d = build_example(name, params)
        for cls in spinc_partition(d):
            verify_d_squared(d, cls.members)  # must not raise


def test_verify_d_squared_rejects_broken_matrix():
    d = build_example("s1s2", [])
    (cls,) = spinc_partition(d)
    # hand it a matrix whose square is visibly nonzero
    with pytest.raises(RuntimeError, match="d\\^2 is nonzero"):
        verify_d_squared(d, cls.members, rows=[2, 1])


# -- class homology and sfh -------------------------------------------------------


def test_class_homology_s1s2():
    d = build_example("s1s2", [])
    (cls,) = spinc_partition(d)
    h = class_homology(d, cls)
    assert h.modulus == 0
    assert h.ranks == {0: 1, 1: 1}
    assert h.total == 2


def test_class_homology_spheres():
    d = build_example("spheres", [3])
    (cls,) = spinc_partition(d)
    h = class_homology(d, cls)
    assert h.ranks == {0: 1, 1: 2, 2: 1}


EXPECTED = {
    ("product", (0, 1)): ("d 0 ranks 0:1; total 1", 1),
    ("product", (0, 3)): ("d 0 ranks 0:1; total 1", 1),
    ("product", (1, 1)): ("d 0 ranks 0:1; total 1", 1),
    ("product", (2, 2)): ("d 0 ranks 0:1; total 1", 1),
    ("torus_lens", (1,)): ("d 0 ranks 0:1; total 1", 1),
    ("torus_lens", (3,)): ("d 0 ranks 0:1; d 0 ranks 0:1; d 0 ranks 0:1; total 3", 3),
    ("s1s2", ()): ("d 0 ranks 0:1,1:1; total 2", 2),
    ("annulus_s3_2", ()): ("d 0 ranks 0:1,1:1; total 2", 2),
    ("spheres", (2,)): ("d 0 ranks 0:1,1:1; total 2", 2),
    ("spheres", (3,)): ("d 0 ranks 0:1,1:2,2:1; total 4", 4),
    ("spheres", (4,)): ("d 0 ranks 0:1,1:3,2:3,3:1; total 8", 8),
    ("lens_knot", (2,)): ("d 0 ranks 0:1; d 0 ranks 0:1; total 2", 2),
    ("nontaut", ()): ("total 0", 0),
}


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_sfh_frozen(key):
    name, params = key
    sig, total = EXPECTED[key]
    res = sfh(build_example(name, list(params)))
    assert res.signature() == sig
    assert res.total_rank == total


def test_sfh_result_shape():
    d = build_example("s1s2", [])
    res = sfh(d)
    assert res.diagram_name == "s1s2"
    assert res.generator_count == 2
    assert res.periodic_rank == 1
    assert res.render_lines() == ["class s0 d 0 ranks 0:1,1:1", "total 2"]
    assert res.render_tsv() == (
        "class\td\tgrading\trank\n"
        "s0\t0\t0\t1\n"
        "s0\t0\t1\t1\n"
        "total\t\t\t2\n"
    )


def test_sfh_periodic_rank_spheres():
    for n in range(1, 5):
        assert sfh(build_example("spheres", [n])).periodic_rank == n - 1


def test_sfh_error_paths():
    with pytest.raises(NotNiceError):
        sfh(build_example("hexagon", []))
    with pytest.raises(NotAdmissibleError):
        sfh(build_example("s1s2_disjoint", []))
    unbalanced = Diagram(
        [Vertex(1, MARKER), Vertex(2, MARKER)],
        [Edge(1, ALPHA, 1, 1, 1), Edge(2, BD, 1, 2, 2)],
        [Region(1, 0, ((1,),)), Region(2, 0, ((-1,), (2,)))],
    )
    with pytest.raises(NotBalancedError, match="not balanced") as exc:
        sfh(unbalanced)
    assert exc.value.problems[0] == "1 alpha circles vs 0 beta circles"
    broken = Diagram([Vertex(1, MARKER)], [], [Region(1, 0, ((7,),))])
    with pytest.raises(InvalidDiagramError):
        sfh(broken)


def _count_smith_forms(monkeypatch) -> list[int]:
    calls = []
    original = intlinalg.smith_normal_form

    def counting(a):
        calls.append(len(a))
        return original(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    return calls


def test_sfh_factors_the_defect_matrix_once(monkeypatch):
    spheres = build_example("spheres", [4])
    lens = build_example("torus_lens", [5])
    union = disjoint_union(spheres, lens)
    calls = _count_smith_forms(monkeypatch)
    for d in (spheres, lens, union):
        calls.clear()
        sfh(d)
        assert len(calls) == 1
        sfh(d)  # the same diagram object keeps its factorization
        assert len(calls) == 1


def test_cli_compute_factors_the_defect_matrix_once(monkeypatch, capsys):
    calls = _count_smith_forms(monkeypatch)
    diagrams = Path(__file__).resolve().parent.parent / "diagrams"
    assert cli.main(["compute", str(diagrams / "spheres_3.shd")]) == 0
    assert "total 4" in capsys.readouterr().out
    assert len(calls) == 1


def test_graded_euler_characteristic_matches_complex():
    # alternating sums of chain and homology ranks agree per class
    for name, params in NICE_CORPUS:
        d = build_example(name, params)
        for cls in spinc_partition(d):
            grades = relative_gradings(d, cls.members)
            h = class_homology(d, cls)
            chain = sum((-1) ** g for g in grades.values())
            homol = sum((-1) ** g * r for g, r in h.ranks.items())
            assert chain == homol, name


def test_signature_shifts_gradings():
    a = SFHResult("a", 2, (ClassHomology(
        "s0", ((1,), (2,)), 0, {(1,): 5, (2,): 6}, {5: 1, 6: 1}),))
    b = SFHResult("b", 2, (ClassHomology(
        "s9", ((4,), (7,)), 0, {(4,): 0, (7,): 1}, {0: 1, 1: 1}),))
    assert a.signature() == b.signature() == "d 0 ranks 0:1,1:1; total 2"
