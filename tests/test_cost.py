"""Upper bounds on the work of each stage, written as functions of the
diagram's size over a size sweep.

These are bounds, not pins: a change that makes a stage cheaper passes
them unchanged, and tightens a bound when the saving should stay.  The exact
counts that other tests pin are kept where they are.
"""
from __future__ import annotations

import contextlib
import gc
import io
import pathlib
import weakref

from sfh import cli, diagram, homology, intlinalg, ratlp, shd, spinc
from sfh.builders import build_example
from sfh.diagram import Diagram, enumerate_generators
from sfh.domains import (DefectSystem, NotAdmissibleError, admissibility,
                         h2_rank, periodic_basis, positive_connecting_domains)
from sfh.homology import NotNiceError, boundary_matrix, class_homology, sfh
from sfh.spinc import grading_modulus, spinc_partition

from test_homology import _count_calls, _nice_variants


def _sweep():
    """spheres(3..7), torus_lens(1..20) and lens_knot(1..20)."""
    for n in range(3, 8):
        yield build_example("spheres", [n])
    for p in range(1, 21):
        yield build_example("torus_lens", [p])
        yield build_example("lens_knot", [p])


def test_each_diagram_is_validated_factored_and_solved_at_most_once(
        monkeypatch):
    # one validation, the defect rows' factorization plus the kernel's, at
    # most one admissibility program and one particular solution per
    # generator
    checks = _count_calls(monkeypatch, Diagram, "validation_errors")
    factored = _count_calls(monkeypatch, intlinalg, "hermite_factorization")
    lps = _count_calls(monkeypatch, ratlp, "maximize")
    for d in _sweep():
        for calls in (checks, factored, lps):
            calls.clear()
        result = sfh(d)
        assert len(checks) <= 1 and len(factored) <= 2 and len(lps) <= 1, (
            d.name, len(checks), len(factored), len(lps))
        built = sum(pot[2] is not None
                    for pot in d.defects._potentials.values())
        assert built <= result.generator_count, d.name


def test_pair_searches_stay_within_the_ordered_pairs_of_each_class(monkeypatch):
    searches = _count_calls(monkeypatch, homology,
                            "positive_connecting_domains")
    for d in _sweep():
        searches.clear()
        classes = spinc_partition(d)
        sfh(d)
        assert len(searches) <= sum(len(c.members) * (len(c.members) - 1)
                                    for c in classes), d.name


def test_boundary_matrix_builds_no_index_weights_under_modulus_zero(
        monkeypatch):
    # the index of a pair's domains is its grading drop, read from the
    # class's gradings
    weights = _count_calls(monkeypatch, homology, "index_weights")
    classes = 0
    for d in (*_sweep(), *_nice_variants()):
        for cls in spinc_partition(d):
            assert grading_modulus(d, min(cls.members)) == 0, d.name
            weights.clear()
            boundary_matrix(d, cls.members)
            assert weights == [], d.name
            classes += 1
    assert classes >= 400, classes


def test_a_coset_rejected_at_the_root_is_not_searched(monkeypatch):
    # an empty coset stops at the root bounds of _walk, before the depth-first
    # search, so there are at most as many searches as nonempty cosets
    walks = _count_calls(monkeypatch, DefectSystem, "_walk")
    searches = _count_calls(monkeypatch, DefectSystem, "_search")
    for d in _sweep():
        walks.clear()
        searches.clear()
        sfh(d)
        nonempty = sum(bool(d.defects._cosets[base]) for _, base in walks)
        assert len(searches) <= nonempty, d.name
        if d.name == "spheres(5)":
            # 16 of its 31 cosets are empty, and none of them is searched
            assert len(walks) - len(searches) >= 16, (len(walks), len(searches))


def test_gradings_sum_at_most_rank_plus_class_size_indices(monkeypatch):
    # grading_modulus sums one index per periodic basis vector and
    # relative_gradings one per member besides the least; both are
    # memoized, so boundary_matrix asking again sums nothing
    sums = _count_calls(monkeypatch, spinc, "_index")
    for d in _sweep():
        rank = h2_rank(d)
        for cls in spinc_partition(d):
            sums.clear()
            class_homology(d, cls)
            assert len(sums) <= rank + len(cls.members) - 1, d.name


def test_well_formed_text_is_read_without_the_per_token_reader(monkeypatch):
    # every line of the packaged files and of the serialized sweep is
    # decoded in one step; _int only words an error
    per_token = _count_calls(monkeypatch, shd, "_int")
    files = pathlib.Path(__file__).resolve().parent.parent / "diagrams"
    texts = [p.read_text(encoding="utf-8") for p in sorted(files.glob("*.shd"))]
    texts += [shd.serialize(d) for d in _sweep()]
    for text in texts:
        shd.parse(text)
    assert per_token == [] and len(texts) == 54


def test_validation_counts_no_edge_use_on_a_valid_diagram(monkeypatch):
    # the edge-use stage reads the walk's side table; the Counter only words
    # a failure
    counters = _count_calls(monkeypatch, diagram, "Counter")
    for d in _sweep():
        assert d.validation_errors() == [], d.name
    assert counters == []


def test_sfh_builds_no_dense_defect_rows():
    # the factorization reads the sparse columns; the dense rows are a view
    # built only when read
    for d in _sweep():
        sfh(d)
        assert "rows" not in vars(d.defects), d.name


def test_an_operation_leaves_no_cyclic_garbage(tmp_path):
    # the per-diagram cache keeps plain tuples and no reference back to its
    # diagram, so dropping an operation's last reference frees all of it by
    # reference counting, and the cyclic collector finds nothing, on every
    # outcome: ranks, not admissible (hexagon, s1s2_disjoint), not nice
    # (nontaut) and, through the CLI, a truncated file.  With the collector
    # off, an operation's objects stay in the youngest generation, so
    # collecting that one after each operation finds its cycles; a full
    # collection, about 10 ms in this process, closes each stage and finds
    # any cycle through older objects
    files = sorted((pathlib.Path(__file__).resolve().parent.parent
                    / "diagrams").glob("*.shd"))
    texts = {d.name: shd.serialize(d) for d in _sweep()}
    texts.update((p.name, p.read_text(encoding="utf-8")) for p in files)
    paths = [str(p) for p in files]
    for p in files:
        text = p.read_text(encoding="utf-8")
        (tmp_path / p.name).write_text(text[:len(text) // 2], encoding="utf-8")
        paths.append(str(tmp_path / p.name))

    def compute(path):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(["compute", path, "--format", "tsv"])
            except SystemExit:
                pass

    enabled = gc.isenabled()
    gc.disable()
    try:
        compute(paths[0])  # the CLI's parser is built once, on first use
        gc.collect()
        for name, text in texts.items():
            try:
                sfh(shd.parse(text))
            except (NotAdmissibleError, NotNiceError):
                pass
            assert gc.collect(0) == 0, name
        assert gc.collect() == 0
        for name, text in texts.items():
            d = shd.parse(text)
            gens = enumerate_generators(d) or [()]
            try:
                positive_connecting_domains(d, gens[-1], gens[0])
            except NotAdmissibleError:
                pass
            periodic_basis(d)
            admissibility(d)
            del d, gens
            assert gc.collect(0) == 0, name
        assert gc.collect() == 0
        for path in paths:
            compute(path)
            assert gc.collect(0) == 0, path
        assert gc.collect() == 0
        # a Domain handed to a caller keeps its diagram alive, and only that
        d = build_example("spheres", [3])
        ref = weakref.ref(d)
        basis = periodic_basis(d)
        del d
        assert ref() is not None and len(basis) == 2
        del basis
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
