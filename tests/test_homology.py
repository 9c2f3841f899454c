"""Rigid counting, the GF(2) complex, and homology ranks on the corpus."""
from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from sfh import cli, homology, intlinalg, ratlp, spinc
from sfh.builders import build_example
from sfh.diagram import (ALPHA, BD, BETA, CROSSING, Diagram, Edge,
                         InvalidDiagramError, MARKER, NotBalancedError, Region,
                         Vertex, enumerate_generators)
from sfh.domains import (DefectSystem, NotAdmissibleError,
                         connecting_domain, positive_connecting_domains)
from sfh.homology import (ClassHomology, NotNiceError, SFHResult,
                          boundary_matrix, class_homology,
                          niceness_report, require_nice, sfh,
                          verify_d_squared)
from sfh.moves import disjoint_union, insert_marker, permute_ids, stabilize
from sfh.spinc import (grading_modulus, index_weights, relative_gradings,
                       spinc_partition)

from oracles import (brute_force_boundary_matrix, coset_bases, dense_square,
                     maslov_index, oracle_rigid, per_pair_connecting_domain,
                     reference_gf2_rank, reference_walk)

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


def _punctured_bigon() -> Diagram:
    """The s1s2 torus with one puncture in the big region and one in the
    first bigon.  The empty second bigon is then the only domain between the
    two generators, so the differential is nonzero; an isotopy across that
    bigon removes both crossings, so the homology is zero."""
    vertices = [Vertex(1, CROSSING), Vertex(2, CROSSING),
                Vertex(3, MARKER), Vertex(4, MARKER)]
    edges = [
        Edge(1, ALPHA, 1, 2, 1), Edge(2, ALPHA, 1, 1, 2),
        Edge(3, BETA, 1, 2, 1), Edge(4, BETA, 1, 1, 2),
        Edge(5, BD, 1, 3, 3), Edge(6, BD, 2, 4, 4),
    ]
    regions = [
        Region(1, 0, ((1, -3), (6,))),
        Region(2, 0, ((4, -2),)),
        Region(3, 0, ((3, 2), (-1, -4), (5,))),
    ]
    return Diagram(vertices, edges, regions, name="punctured-bigon")


def _nice_variants():
    """The nice corpus and the punctured bigon, each entry also relabeled,
    with a marker inserted and stabilized in a boundary region, and one
    disjoint union."""
    corpus = [build_example(name, params) for name, params in NICE_CORPUS]
    for d in corpus + [_punctured_bigon()]:
        outer = min(set(d.regions) - set(d.interior_regions))
        yield d
        yield permute_ids(d, 1)
        yield insert_marker(d, min(d.edges))
        yield stabilize(d, outer)
    # two punctured bigons give an index-2 domain counted once
    yield disjoint_union(disjoint_union(build_example("spheres", [2]),
                                        _punctured_bigon()), _punctured_bigon())


# -- niceness -------------------------------------------------------------------


def test_niceness_catalog():
    for name, params in NICE_CORPUS:
        d = build_example(name, params)
        assert niceness_report(d) == [], name
        require_nice(d)


def test_hexagon_is_not_nice():
    d = build_example("hexagon", [])
    report = niceness_report(d)
    assert report == ["interior region 1 has 6 corners; want 2 or 4"]
    assert report
    with pytest.raises(NotNiceError, match="6 corners"):
        require_nice(d)


def test_niceness_flags_genus_and_extra_cycles():
    # genus bump on an interior region
    d = build_example("s1s2", [])
    rs = [Region(r.id, 1, r.cycles) if r.id == 1 else r
          for r in d.regions.values()]
    bumped = Diagram(list(d.vertices.values()), list(d.edges.values()), rs)
    assert "interior region 1 has genus 1" in niceness_report(bumped)


# -- connecting domains ---------------------------------------------------------


def test_connecting_domain_matches_per_pair_solve():
    # the per-generator potentials give the per-pair Smith solve's domain,
    # and its None, on every ordered pair
    diagrams = list(_nice_variants()) + [
        disjoint_union(build_example("spheres", [3]),
                       build_example("lens_knot", [4])),
        disjoint_union(build_example("torus_lens", [3]),
                       build_example("s1s2"))]
    pairs = connected = 0
    for d in diagrams:
        gens = enumerate_generators(d)
        for x, y in itertools.product(gens, repeat=2):
            want = per_pair_connecting_domain(d, x, y)
            assert connecting_domain(d, x, y) == want, (d.name, x, y)
            pairs += 1
            connected += want is not None
        # lists, permuted order and repeated points name the same generators
        for x, y in itertools.product(gens[:3], gens[-3:]):
            want = per_pair_connecting_domain(d, x, y)
            assert connecting_domain(d, list(reversed(x)), y) == want
            assert connecting_domain(d, x, [*y, *y[:1]]) == want
        # a vertex that is no crossing is rejected, also beside a generator
        # whose potential is already known, and on every call
        for bad in (*d.markers[:1], max(d.vertices) + 1):
            for x in gens[:2]:
                for args in ((x, (bad,)), ((bad,), x), ((*x[1:], bad), x)):
                    with pytest.raises(ValueError, match="non-crossing"):
                        connecting_domain(d, *args)
    assert connected < pairs


# -- rigid counting -------------------------------------------------------------


def test_rigid_count_bigons():
    d = build_example("s1s2", [])
    x, y = enumerate_generators(d)
    assert oracle_rigid(d, (1, 0), y, x) == 1
    assert oracle_rigid(d, (0, 1), y, x) == 1


def test_rigid_count_rectangles(grid2):
    x, y = enumerate_generators(grid2)
    assert oracle_rigid(grid2, (1, 0), x, y) == 1
    assert oracle_rigid(grid2, (0, 1), x, y) == 1


def test_rigid_matches_polygon_gluing_oracle():
    # Sarkar-Wang, Thm 3.3: on a nice diagram every nonnegative index-1
    # domain is an embedded bigon or rectangle, which the polygon-gluing
    # oracle recognizes; and the pair's weights give four times the index
    index1 = 0
    for d in _nice_variants():
        assert niceness_report(d) == [], d.name
        for x, y in itertools.permutations(enumerate_generators(d), 2):
            w = index_weights(d, x, y)
            for dom in positive_connecting_domains(d, x, y):
                mu = maslov_index(d, dom, x, y)
                assert sum(a * c for a, c in zip(w, dom.coeffs)) == 4 * mu
                if mu == 1:
                    assert oracle_rigid(d, dom.coeffs, x, y) == 1, (
                        d.name, x, y, dom.describe())
                    index1 += 1
    assert index1 == 76


# -- boundary matrix -------------------------------------------------------------


def test_boundary_matrix_s1s2():
    d = build_example("s1s2", [])
    (cls,) = spinc_partition(d)
    # two bigons from the top generator cancel mod 2
    assert boundary_matrix(d, cls.members) == [0, 0]


def test_boundary_matrix_counts_a_lone_bigon():
    d = _punctured_bigon()
    (cls,) = spinc_partition(d)
    assert cls.members == ((1,), (2,))
    assert boundary_matrix(d, cls.members) == [0, 1]
    assert sfh(d).render_lines() == ["class s0 d 0 ranks 0", "total 0"]


def test_boundary_matrix_grid(grid2):
    (cls,) = spinc_partition(grid2)
    assert boundary_matrix(grid2, cls.members) == [0, 0]


def test_boundary_matrix_matches_oracle():
    for d in _nice_variants():
        for cls in spinc_partition(d):
            got = boundary_matrix(d, cls.members)
            want = brute_force_boundary_matrix(d, cls.members)
            assert got == want, d.name


def test_boundary_matrix_per_domain_sums_give_the_same_rows(monkeypatch):
    # no packaged class has a nonzero modulus, so force the branch that
    # sums every domain and compare it with the rows read from the exact
    # gradings; the modulus is decided at most once per class, and only
    # for classes with a pair that has a nonnegative domain
    want = {}
    for d in _walk_variants():
        for cls in spinc_partition(d):
            want[d, cls.members] = boundary_matrix(d, cls.members)
    monkeypatch.setattr(homology, "grading_modulus", lambda d, member: 2)
    decided = _count_calls(monkeypatch, homology, "grading_modulus")
    forced = 0
    for (d, members), rows in want.items():
        assert boundary_matrix(d, members) == rows, d.name
        assert len(decided) <= 1
        forced += len(decided)
        searched = any(positive_connecting_domains(d, x, y)
                       for x, y in itertools.permutations(members, 2))
        assert len(decided) == searched, d.name
        decided.clear()
    assert forced >= 150, forced


def test_grading_modulus_is_summed_once_per_class(monkeypatch):
    # class_homology and boundary_matrix both ask for the modulus of
    # spheres(5)'s one class; only the first call sums an index, and
    # relative_gradings sums one per member besides the least
    asked = _count_calls(monkeypatch, homology, "grading_modulus")
    sums = _count_calls(monkeypatch, spinc, "_index")
    d = build_example("spheres", [5])
    sfh(d)
    (cls,) = spinc_partition(d)
    least = min(cls.members)
    assert [args[1] for args in asked] == [least, least]
    assert len(sums) == len(d.defects.periodic) + len(cls.members) - 1
    sums.clear()
    assert grading_modulus(d, least) == 0 and sums == []


def test_boundary_drops_grading_by_one():
    for d in _nice_variants():
        for cls in spinc_partition(d):
            grades = relative_gradings(d, cls.members,
                                       grading_modulus(d, min(cls.members)))
            rows = boundary_matrix(d, cls.members)
            for i, x in enumerate(cls.members):
                for j, y in enumerate(cls.members):
                    if rows[i] >> j & 1:
                        assert grades[x] - grades[y] == 1


def test_verify_d_squared_corpus():
    for d in _nice_variants():
        for cls in spinc_partition(d):
            rows = boundary_matrix(d, cls.members)
            verify_d_squared(d, cls.members, rows)  # must not raise


def test_verify_d_squared_rejects_broken_matrix():
    d = build_example("s1s2", [])
    (cls,) = spinc_partition(d)
    # hand it a matrix whose square is visibly nonzero
    with pytest.raises(RuntimeError, match="d\\^2 is nonzero"):
        verify_d_squared(d, cls.members, rows=[2, 1])
    # seeded random rows over spheres(4)'s eight generators: the check raises
    # exactly where the dense double loop finds a nonzero entry
    d = build_example("spheres", [4])
    (cls,) = spinc_partition(d)
    members, n = cls.members, len(cls.members)
    rng = random.Random(4)
    raised = 0
    for _ in range(300):
        density = rng.choice((0.05, 0.15, 0.4))
        rows = [sum(1 << j for j in range(n) if rng.random() < density)
                for _ in range(n)]
        square = dense_square(rows)
        bad = next((i for i, acc in enumerate(square) if acc), None)
        if bad is None:
            verify_d_squared(d, members, rows=rows)  # must not raise
            continue
        targets = [members[j] for j in range(n) if square[bad] >> j & 1]
        with pytest.raises(RuntimeError) as exc:
            verify_d_squared(d, members, rows=rows)
        first = str(exc.value).split("; ")[0]
        assert first == f"d^2 is nonzero from {members[bad]} to {targets}"
        raised += 1
    assert raised == 250  # and 50 square to zero


def test_gf2_rank_matches_the_full_basis_reduction():
    rng = random.Random(10)
    for _ in range(2000):
        width, count = rng.randint(1, 40), rng.randint(0, 30)
        density = rng.choice((0.05, 0.2, 0.5))
        rows = [sum(1 << j for j in range(width) if rng.random() < density)
                for _ in range(count)]
        for _ in range(rng.randint(0, 3)):  # plant dependent rows
            if rows:
                rows.append(rng.choice(rows) ^ rng.choice(rows))
        rng.shuffle(rows)
        assert homology._gf2_rank(rows) == reference_gf2_rank(rows), rows
    # every grading of every class, as class_homology groups the rows
    for d in _walk_variants():
        for cls in spinc_partition(d):
            rows = boundary_matrix(d, cls.members)
            gradings = relative_gradings(
                d, cls.members, grading_modulus(d, min(cls.members)))
            groups: dict[int, list[int]] = {}
            for g, row in zip(cls.members, rows):
                groups.setdefault(gradings[g], []).append(row)
            for group in [rows, *groups.values()]:
                assert (homology._gf2_rank(group)
                        == reference_gf2_rank(group)), d.name


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


def _count_calls(monkeypatch, owner, name) -> list[tuple]:
    """Record the arguments of every call to owner.name."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_sfh_factors_the_defect_matrix_once(monkeypatch):
    spheres = build_example("spheres", [4])
    lens = build_example("torus_lens", [5])
    union = disjoint_union(spheres, lens)
    factored = _count_calls(monkeypatch, intlinalg, "hermite_factorization")
    lps = _count_calls(monkeypatch, ratlp, "maximize")

    def factorizations(d):
        # the factorizations of d's defect columns, and all of them: the
        # periodic basis factors the kernel once more where it is not empty
        return sum(args[0] is d.defects.columns for args in factored), \
            len(factored)

    # no admissibility program where every periodic basis vector sums to 0
    # (all-ones is then an area form), and none for the positive-domain
    # searches; the lens kernel is empty, so nothing else is factored
    for d, programs in ((spheres, 0), (lens, 0), (union, 0)):
        factored.clear()
        lps.clear()
        for _ in range(2):  # the same diagram object keeps its factorization
            sfh(d)
            rows, total = factorizations(d)
            assert (rows, len(lps)) == (1, programs)
            assert total == 1 if d is lens else total <= 2
    # any other lattice gets exactly one program, which finds the witness
    disjoint = build_example("s1s2_disjoint")
    factored.clear()
    lps.clear()
    for _ in range(2):
        with pytest.raises(NotAdmissibleError) as exc:
            sfh(disjoint)
        assert min(exc.value.witness.coeffs) >= 0
        assert any(exc.value.witness.coeffs)
        rows, total = factorizations(disjoint)
        assert (rows, len(lps)) == (1, 1) and total <= 2
    # at most one particular solution per generator, counted on fresh
    # diagrams; the lens classes are singletons, so no key ever matches
    # another and no generator needs one
    for d, most in ((build_example("spheres", [4]), 8),
                    (disjoint_union(build_example("spheres", [4]),
                                    build_example("torus_lens", [5])), 40),
                    (build_example("torus_lens", [5]), 0)):
        sfh(d)
        built = sum(pot[2] is not None
                    for pot in d.defects._potentials.values())
        assert built <= most, d.name


def test_sfh_walks_each_coset_once(monkeypatch):
    # the searches of boundary_matrix share cosets, one walk each; a coset
    # whose area is not positive is decided from the potentials, unwalked
    walks = _count_calls(monkeypatch, DefectSystem, "_walk")
    searches = _count_calls(monkeypatch, homology,
                            "positive_connecting_domains")
    for d, walked, searched in (
            (build_example("spheres", [4]), 10, 56),
            (build_example("spheres", [5]), 31, 240),
            (disjoint_union(build_example("spheres", [4]),
                            build_example("torus_lens", [5])), 10, 280)):
        walks.clear()
        searches.clear()
        sfh(d)
        bases = {connecting_domain(d, x, y)
                 for x, y in itertools.permutations(enumerate_generators(d), 2)}
        bases.discard(None)
        w = d.defects.area
        positive = [b for b in bases
                    if sum(a * c for a, c in zip(w, b.coeffs)) > 0]
        assert len(walks) == len(positive) == walked, d.name
        assert len(searches) == searched, d.name


def _walk_variants():
    yield from _nice_variants()
    families = [build_example("spheres", [n]) for n in range(2, 7)]
    families += [disjoint_union(build_example("lens_knot", [k]),
                                build_example("spheres", [n]))
                 for k in range(2, 7) for n in (3, 4)]
    for d in families:
        yield d
        yield permute_ids(d, 5)
        yield permute_ids(d, 1250219996)


def test_walk_matches_the_lead_row_walk():
    # the walk that bounds every final row returns, domain by domain and in
    # order, what the walk that bounds only the lead row found
    walked = 0
    for d in _walk_variants():
        ds = d.defects
        for base in coset_bases(d):
            assert ds._walk(base) == reference_walk(ds, base), (d.name, base)
            walked += 1
    assert walked >= 1756


def test_cli_compute_factors_the_defect_matrix_once(monkeypatch, capsys):
    factored = _count_calls(monkeypatch, intlinalg, "hermite_factorization")
    checks = _count_calls(monkeypatch, Diagram, "validation_errors")
    diagrams = Path(__file__).resolve().parent.parent / "diagrams"
    assert cli.main(["compute", str(diagrams / "spheres_3.shd")]) == 0
    assert "total 4" in capsys.readouterr().out
    assert len(checks) == 1  # the CLI and sfh() share one validation
    # one factorization of the defect columns; the periodic basis factors
    # the kernel once more
    d = checks[0][0]
    assert sum(args[0] is d.defects.columns for args in factored) == 1
    assert len(factored) <= 2


def test_graded_euler_characteristic_matches_complex():
    # alternating sums of chain and homology ranks agree per class
    for d in _nice_variants():
        for cls in spinc_partition(d):
            grades = relative_gradings(d, cls.members,
                                       grading_modulus(d, min(cls.members)))
            h = class_homology(d, cls)
            chain = sum((-1) ** g for g in grades.values())
            homol = sum((-1) ** g * r for g, r in h.ranks.items())
            assert chain == homol, d.name


def test_signature_shifts_gradings():
    a = SFHResult("a", 2, (ClassHomology(
        "s0", ((1,), (2,)), 0, {(1,): 5, (2,): 6}, {5: 1, 6: 1}),))
    b = SFHResult("b", 2, (ClassHomology(
        "s9", ((4,), (7,)), 0, {(4,): 0, (7,): 1}, {0: 1, 1: 1}),))
    assert a.signature() == b.signature() == "d 0 ranks 0:1,1:1; total 2"
