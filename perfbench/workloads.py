"""Seeded inputs and closed-form answers for the sfh benchmark.

A workload is a fixed list of cases that makes up one round.  A run repeats
rounds; within each round the seed decides the order of the cases, the edge
or region a move touches, and a fresh relabeling of every diagram
(``moves.permute_ids`` with a seed of its own per operation).  The program
under test only ever sees the resulting ``.shd`` text.

Expected answers never come from the code under test.  They are the closed
forms of the packaged families:

- ``spheres(n)``: one class, ranks C(n-1, i) at grading i;
- ``torus_lens(p)`` and ``lens_knot(k)``: p (or k) classes of rank 1;
- ``s1s2`` and ``annulus_s3_2``: one class, ranks 1 and 1 in adjacent
  gradings; ``product(g, b)``: one class of rank 1; ``nontaut``: no classes;
- a disjoint union has one class per pair of factor classes, with the ranks
  convolved;
- marker insertion, stabilization and relabeling leave the answer unchanged;
- ``s1s2_disjoint`` is rejected as inadmissible (exit 2), ``hexagon`` as not
  nice (exit 3), and a truncated file as invalid (exit 1).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# A class spectrum: (grading modulus, {grading: rank}).  A diagram's answer
# is a list of them, one per Spin^c class.
Spectrum = tuple[int, dict[int, int]]

EXIT_INVALID, EXIT_INADMISSIBLE, EXIT_NOT_NICE = 1, 2, 3


def _closed_form(name: str, params: tuple[int, ...]) -> list[Spectrum]:
    if name == "spheres":
        (n,) = params
        return [(0, {i: math.comb(n - 1, i) for i in range(n)})]
    if name in ("torus_lens", "lens_knot"):
        (p,) = params
        return [(0, {0: 1}) for _ in range(p)]
    if name in ("s1s2", "annulus_s3_2"):
        return [(0, {0: 1, 1: 1})]
    if name == "product":
        return [(0, {0: 1})]
    if name == "nontaut":
        return []
    raise KeyError(f"no closed form for {name}")


def _union(a: list[Spectrum], b: list[Spectrum]) -> list[Spectrum]:
    out = []
    for ma, ra in a:
        for mb, rb in b:
            modulus = math.gcd(ma, mb)
            ranks: dict[int, int] = {}
            for ga, xa in ra.items():
                for gb, xb in rb.items():
                    g = (ga + gb) % modulus if modulus else ga + gb
                    ranks[g] = ranks.get(g, 0) + xa * xb
            out.append((modulus, ranks))
    return out


def signature(classes: list[Spectrum]) -> str:
    """Relabeling-invariant summary of an answer, written independently of
    ``SFHResult.signature`` but in the same format: each class's gradings
    are shifted to start at 0 (the least rotation when graded modulo d)."""
    parts = []
    total = 0
    for modulus, ranks in classes:
        nz = {g: r for g, r in ranks.items() if r}
        total += sum(nz.values())
        if not nz:
            parts.append(f"d {modulus} ranks 0")
            continue
        if modulus:
            items = min(tuple(sorted(((g - s) % modulus, r) for g, r in nz.items()))
                        for s in range(modulus))
        else:
            base = min(nz)
            items = tuple(sorted((g - base, r) for g, r in nz.items()))
        parts.append(f"d {modulus} ranks " + ",".join(f"{g}:{r}" for g, r in items))
    parts.sort()
    parts.append(f"total {total}")
    return "; ".join(parts)


def tsv_signature(tsv: str) -> str:
    """Signature of ``sfh compute --format tsv`` output.  The table omits
    classes whose ranks are all zero, so compare it only against answers
    that have none."""
    by_class: dict[str, Spectrum] = {}
    for line in tsv.splitlines()[1:]:
        cls, modulus, grading, rank = line.split("\t")
        if cls == "total":
            continue
        entry = by_class.setdefault(cls, (int(modulus), {}))
        entry[1][int(grading)] = int(rank)
    return signature(list(by_class.values()))


# -- cases and workloads ---------------------------------------------------


Part = tuple[str, tuple[int, ...]]

_REJECTED = {"s1s2_disjoint": EXIT_INADMISSIBLE, "hexagon": EXIT_NOT_NICE}


@dataclass(frozen=True)
class Case:
    """A diagram recipe: the disjoint union of ``parts``, then ``move``
    ("marker", "stabilize" or "truncate"), then a fresh relabeling."""

    parts: tuple[Part, ...]
    move: str | None = None

    @property
    def label(self) -> str:
        body = "|".join(f"{n}({','.join(map(str, p))})" if p else n
                        for n, p in self.parts)
        return f"{body}+{self.move}" if self.move else body

    def expected_exit(self) -> int:
        if self.move == "truncate":
            return EXIT_INVALID
        # admissibility is checked before niceness
        codes = sorted(_REJECTED[n] for n, _ in self.parts if n in _REJECTED)
        return codes[0] if codes else 0

    def expected(self) -> list[Spectrum]:
        out: list[Spectrum] = [(0, {0: 1})]
        for name, params in self.parts:
            out = _union(out, _closed_form(name, params))
        return out


def _spheres() -> list[Case]:
    return [Case((("spheres", (n,)),), move)
            for n, copies in ((3, 1), (4, 2), (5, 1))
            for move in (None, "marker", "stabilize") for _ in range(copies)]


def _lens() -> list[Case]:
    return [Case(((kind, (p,)),))
            for p in (12, 12, 16, 16, 16, 20, 20) for kind in ("torus_lens", "lens_knot")]


def _unions() -> list[Case]:
    combos = [("torus_lens", 2, 3), ("lens_knot", 2, 3), ("torus_lens", 3, 3),
              ("lens_knot", 3, 3),
              ("torus_lens", 2, 4), ("torus_lens", 6, 3), ("lens_knot", 6, 3),
              ("lens_knot", 8, 3),
              ("lens_knot", 4, 4), ("lens_knot", 4, 4), ("lens_knot", 4, 4)]
    return [Case(((kind, (p,)), ("spheres", (n,)))) for kind, p, n in combos]


_SMALL: list[Part] = [
    ("s1s2", ()), ("annulus_s3_2", ()), ("torus_lens", (2,)),
    ("torus_lens", (3,)), ("lens_knot", (2,)), ("lens_knot", (3,)),
    ("product", (1, 1)), ("nontaut", ()), ("spheres", (2,)),
]


def _corpus() -> list[Case]:
    singles: list[Part] = (
        [("product", (g, b)) for g in range(3) for b in range(1, 4)]
        + [("torus_lens", (p,)) for p in range(1, 9)]
        + [("lens_knot", (k,)) for k in range(1, 9)]
        + [("s1s2", ()), ("annulus_s3_2", ()), ("nontaut", ())]
        + [("spheres", (n,)) for n in range(1, 4)])
    pairs = [(a, b) for i, a in enumerate(_SMALL) for b in _SMALL[i:]]
    ok = ([Case((p,)) for p in singles] + [Case((p,), "marker") for p in singles]
          + [Case(pair) for pair in pairs] + [Case(pair, "marker") for pair in pairs[::4]])
    truncated = [Case(c.parts, "truncate") for c in ok[::9]]
    rejected = []
    for bad in ("s1s2_disjoint", "hexagon"):
        rejected += [Case(((bad, ()),)), Case(((bad, ()),), "marker")]
        rejected += [Case(((bad, ()), other)) for other in _SMALL[:5]]
    return ok + truncated + rejected


WORKLOADS: dict[str, list[Case]] = {
    "spheres": _spheres(),
    "lens": _lens(),
    "unions": _unions(),
    "corpus": _corpus(),
}

# Each round is a few size classes of similar cost.  The median falls in the
# middle of one of them (spheres(4); p = 16; the torus_lens(2)|spheres(4),
# torus_lens(6)|spheres(3) and lens_knot(6)|spheres(3) cluster), away from the
# jump to the next class, so that noise cannot move it across.  The percentile
# reported as solve_s_tail likewise falls inside the costliest class (the last
# 1/4 of spheres, 2/7 of lens, 3/11 of unions) and leaves about ten samples
# beyond it in a run of the committed length; the lower percentile a shorter
# run falls back to stays in the same class.  corpus has thousands of samples;
# its p99 moved by a quarter between runs with host hiccups, so it uses p95.
TAIL_PERCENTILE = {"spheres": 85, "lens": 80, "unions": 80, "corpus": 95}


# -- generation ---------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    key: str          # "<round>.<position>", unique within a run
    case_index: int   # index into the workload's case list
    label: str
    text: str
    expected_exit: int
    expected: str     # signature; empty when the expected exit is nonzero


def _boundary_regions(d) -> list[int]:
    from sfh.diagram import BD
    return sorted(r.id for r in d.regions.values()
                  if any(d.edges[abs(ref)].curve == BD
                         for cyc in r.cycles for ref in cyc))


def _build(case: Case, rng: random.Random, name: str) -> str:
    from sfh import builders, moves, shd
    d = None
    for part_name, params in case.parts:
        part = builders.build_example(part_name, params)
        d = part if d is None else moves.disjoint_union(d, part)
    if case.move == "marker":
        regions = _boundary_regions(d)
        region = d.regions[rng.choice(regions)]
        edges = sorted({abs(ref) for cyc in region.cycles for ref in cyc})
        d = moves.insert_marker(d, rng.choice(edges))
    elif case.move == "stabilize":
        d = moves.stabilize(d, rng.choice(_boundary_regions(d)))
    d = moves.permute_ids(d, rng.randrange(2 ** 32))
    d.name = name
    text = shd.serialize(d)
    if case.move == "truncate":
        # cut somewhere inside the last record, possibly dropping all of it
        start = text.rstrip("\n").rfind("\n") + 1
        text = text[:rng.randrange(start, len(text) - 1)]
    return text


def make_round(workload: str, seed: int, round_index: int) -> list[Op]:
    """The operations of one round, a pure function of its arguments."""
    cases = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    order = list(range(len(cases)))
    rng.shuffle(order)
    ops = []
    for pos, ci in enumerate(order):
        case = cases[ci]
        key = f"{round_index}.{pos}"
        code = case.expected_exit()
        ops.append(Op(key, ci, case.label,
                      _build(case, rng, f"{case.label} #{key}"), code,
                      "" if code else signature(case.expected())))
    return ops
