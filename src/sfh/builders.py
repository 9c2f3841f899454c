"""Ready-made example diagrams.

Cell tables are hand-checked: every interior edge is referenced once with
each sign, boundary edges once, and the quadrant structure at each crossing
closes up.  So a builder does not validate its diagram; like any diagram, it
is validated on first use (``sfh()``, or the first read of a cell table).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .diagram import (ALPHA, BD, BETA, CROSSING, MARKER, Diagram, Edge,
                      Region, Vertex)


def _diagram(name, vertices, edges, regions) -> Diagram:
    return Diagram(
        [Vertex(i, k) for i, k in vertices],
        [Edge(i, c, x, t, h) for i, c, x, t, h in edges],
        [Region(i, g, tuple(tuple(c) for c in cycs)) for i, g, cycs in regions],
        name=name,
    )


def product_diagram(genus: int = 1, boundaries: int = 1) -> Diagram:
    """Surface of the given genus and boundary count, no curves at all.

    Presents the product manifold over that surface.  Homology has a single
    empty generator, so the total rank is 1.
    """
    if genus < 0 or boundaries < 1:
        raise ValueError("need genus >= 0 and at least one boundary circle")
    vertices = [(j, MARKER) for j in range(1, boundaries + 1)]
    edges = [(j, BD, j, j, j) for j in range(1, boundaries + 1)]
    regions = [(1, genus, [[+j] for j in range(1, boundaries + 1)])]
    return _diagram(f"product({genus},{boundaries})", vertices, edges, regions)


def _torus_lens_cells(p: int) -> tuple[list, list, list]:
    """The vertex, edge and region rows of ``torus_lens_diagram(p)``."""
    vertices = [(k + 1, CROSSING) for k in range(p)] + [(p + 1, MARKER)]
    edges = []
    for k in range(p):
        edges.append((k + 1, ALPHA, 1, k + 1, (k + 1) % p + 1))
        edges.append((p + k + 1, BETA, 1, k + 1, (k + 1) % p + 1))
    edges.append((2 * p + 1, BD, 1, p + 1, p + 1))
    regions = []
    for k in range(p):
        a, b = k + 1, p + k + 1
        a_next = (k + 1) % p + 1
        b_next = p + (k + 1) % p + 1
        cycles = [[+a, +b_next, -a_next, -b]]
        if k == 0:
            cycles.append([+(2 * p + 1)])
        regions.append((k + 1, 0, cycles))
    return vertices, edges, regions


def torus_lens_diagram(p: int = 3) -> Diagram:
    """One alpha and one beta circle on a once-punctured torus, meeting p times.

    The curves wind so that the p crossings fall in p distinct generator
    classes; the rank is 1 in each, p in total.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    return _diagram(f"torus_lens({p})", *_torus_lens_cells(p))


def s1s2_diagram() -> Diagram:
    """Punctured torus with isotopic alpha and beta circles meeting twice.

    Two generators in one class, ranks 1 and 1 in adjacent gradings.  The
    two bigons force the interesting differential (it vanishes mod 2).
    """
    vertices = [(1, CROSSING), (2, CROSSING), (3, MARKER)]
    edges = [
        (1, ALPHA, 1, 2, 1), (2, ALPHA, 1, 1, 2),
        (3, BETA, 1, 2, 1), (4, BETA, 1, 1, 2),
        (5, BD, 1, 3, 3),
    ]
    regions = [
        (1, 0, [[+1, -3]]),
        (2, 0, [[+4, -2]]),
        (3, 0, [[+3, +2], [-1, -4], [+5]]),
    ]
    return _diagram("s1s2", vertices, edges, regions)


def s1s2_disjoint() -> Diagram:
    """Disjoint isotopic alpha and beta circles on a punctured torus.

    Every domain is periodic and one of them is positive, so the diagram is
    not admissible and has no generators at all.
    """
    vertices = [(1, MARKER), (2, MARKER), (3, MARKER)]
    edges = [(1, ALPHA, 1, 1, 1), (2, BETA, 1, 2, 2), (3, BD, 1, 3, 3)]
    regions = [
        (1, 0, [[+1], [-2]]),
        (2, 0, [[-1], [+2], [+3]]),
    ]
    return _diagram("s1s2_disjoint", vertices, edges, regions)


def annulus_s3_2() -> Diagram:
    """Double bigon on an annulus, one suture circle on each side.

    Same two generators and two bigons as the punctured-torus version, so
    again one class of rank 2 split across adjacent gradings.
    """
    vertices = [(1, CROSSING), (2, CROSSING), (3, MARKER), (4, MARKER)]
    edges = [
        (1, ALPHA, 1, 2, 1), (2, ALPHA, 1, 1, 2),
        (3, BETA, 1, 2, 1), (4, BETA, 1, 1, 2),
        (5, BD, 1, 3, 3), (6, BD, 2, 4, 4),
    ]
    regions = [
        (1, 0, [[+1, -3]]),
        (2, 0, [[+4, -2]]),
        (3, 0, [[+3, +2], [+5]]),
        (4, 0, [[-1, -4], [+6]]),
    ]
    return _diagram("annulus_s3_2", vertices, edges, regions)


def spheres_diagram(n: int = 3) -> Diagram:
    """Sphere with n holes; bands of parallel curve pairs between the holes.

    Band i contributes an independent two-generator factor, so there are
    2^(n-1) generators in a single class with binomial rank distribution
    across n gradings.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        vertices = [(1, MARKER)]
        edges = [(1, BD, 1, 1, 1)]
        regions = [(1, 0, [[+1]])]
        return _diagram("spheres(1)", vertices, edges, regions)
    vertices = []
    for i in range(1, n):
        vertices.append((2 * i - 1, CROSSING))
        vertices.append((2 * i, CROSSING))
    for j in range(1, n + 1):
        vertices.append((2 * (n - 1) + j, MARKER))
    edges = []
    for i in range(1, n):
        w, u = 2 * i - 1, 2 * i
        base = 4 * (i - 1)
        edges.append((base + 1, ALPHA, i, u, w))
        edges.append((base + 2, ALPHA, i, w, u))
        edges.append((base + 3, BETA, i, u, w))
        edges.append((base + 4, BETA, i, w, u))
    for j in range(1, n + 1):
        m = 2 * (n - 1) + j
        edges.append((4 * (n - 1) + j, BD, j, m, m))
    regions = []
    outer = []
    for i in range(1, n):
        base = 4 * (i - 1)
        a1, a2, b1, b2 = base + 1, base + 2, base + 3, base + 4
        rid = 3 * (i - 1)
        regions.append((rid + 1, 0, [[+a1, -b1]]))
        regions.append((rid + 2, 0, [[+b2, -a2]]))
        regions.append((rid + 3, 0, [[-a1, -b2], [+(4 * (n - 1) + i)]]))
        outer.append([+b1, +a2])
    outer.append([+(4 * (n - 1) + n)])
    regions.append((3 * (n - 1) + 1, 0, outer))
    return _diagram(f"spheres({n})", vertices, edges, regions)


def lens_knot_meridian(k: int = 3) -> Diagram:
    """Torus winding diagram with an extra puncture next to the curves.

    Knot-complement flavor of the p-crossing torus diagram: k generators in
    k singleton classes, rank 1 each.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        vertices = [(1, CROSSING), (2, MARKER), (3, MARKER)]
        edges = [
            (1, ALPHA, 1, 1, 1), (2, BETA, 1, 1, 1),
            (3, BD, 1, 2, 2), (4, BD, 2, 3, 3),
        ]
        regions = [(1, 0, [[+1, +2, -1, -2], [+3], [+4]])]
        return _diagram("lens_knot(1)", vertices, edges, regions)
    vertices, edges, regions = _torus_lens_cells(k)
    vertices.append((k + 2, MARKER))
    edges.append((2 * k + 2, BD, 2, k + 2, k + 2))
    regions[1][2].append([+(2 * k + 2)])  # the second puncture sits in region 2
    return _diagram(f"lens_knot({k})", vertices, edges, regions)


def nontaut_example() -> Diagram:
    """Disjoint alpha and beta circles that are boundary-parallel.

    Balanced and admissible (each annulus between the curves reaches the
    boundary) but with no crossings: zero generators, zero homology.
    """
    vertices = [(1, MARKER), (2, MARKER), (3, MARKER), (4, MARKER)]
    edges = [
        (1, ALPHA, 1, 1, 1), (2, BETA, 1, 2, 2),
        (3, BD, 1, 3, 3), (4, BD, 2, 4, 4),
    ]
    regions = [
        (1, 0, [[+1], [-2], [+3]]),
        (2, 0, [[-1], [+2], [+4]]),
    ]
    return _diagram("nontaut", vertices, edges, regions)


def hexagon_example() -> Diagram:
    """Thrice-punctured torus with one hexagonal interior region.

    Alpha and beta each wrap the torus once, crossing at four points; the
    complement is two hexagons and two bigons, and puncturing one hexagon
    and both bigons leaves a single six-cornered interior region.  Valid,
    balanced, and admissible, but the rectangle-counting pipeline refuses
    it: the not-nice error path in one diagram.
    """
    vertices = [(i, CROSSING) for i in (1, 2, 3, 4)] \
        + [(i, MARKER) for i in (5, 6, 7)]
    edges = [
        (1, ALPHA, 1, 1, 2), (2, ALPHA, 1, 2, 3),
        (3, ALPHA, 1, 3, 4), (4, ALPHA, 1, 4, 1),
        (5, BETA, 1, 1, 2), (6, BETA, 1, 2, 3),
        (7, BETA, 1, 3, 4), (8, BETA, 1, 4, 1),
        (9, BD, 1, 5, 5), (10, BD, 2, 6, 6), (11, BD, 3, 7, 7),
    ]
    # region 1 is the surviving hexagon; the opposite hexagon and the two
    # bigons each carry a puncture, which kills every periodic direction
    regions = [
        (1, 0, [[-1, +5, +2, +7, -3, -6]]),
        (2, 0, [[+1, -5, -4, -7, +3, +8], [+9]]),
        (3, 0, [[-2, +6], [+10]]),
        (4, 0, [[+4, -8], [+11]]),
    ]
    return _diagram("hexagon", vertices, edges, regions)


@dataclass(frozen=True)
class BuilderSpec:
    name: str
    build: Callable[..., Diagram]
    defaults: tuple[int, ...]
    summary: str


BUILDERS: dict[str, BuilderSpec] = {
    s.name: s for s in [
        BuilderSpec("product", product_diagram, (1, 1),
                    "product manifold over a surface; total rank 1"),
        BuilderSpec("torus_lens", torus_lens_diagram, (3,),
                    "p crossings on a punctured torus; p classes of rank 1"),
        BuilderSpec("s1s2", s1s2_diagram, (),
                    "double bigon on a punctured torus; one class, ranks 1+1"),
        BuilderSpec("s1s2_disjoint", s1s2_disjoint, (),
                    "disjoint parallel curves; not admissible"),
        BuilderSpec("annulus_s3_2", annulus_s3_2, (),
                    "double bigon, two boundary circles; one class of rank 2"),
        BuilderSpec("spheres", spheres_diagram, (3,),
                    "n-holed sphere with curve bands; 2^(n-1) generators, "
                    "binomial ranks"),
        BuilderSpec("lens_knot", lens_knot_meridian, (3,),
                    "torus winding plus a second puncture; k classes of rank 1"),
        BuilderSpec("nontaut", nontaut_example, (),
                    "boundary-parallel disjoint curves; homology vanishes"),
        BuilderSpec("hexagon", hexagon_example, (),
                    "six-cornered interior region; valid but not nice"),
    ]
}


def build_example(name: str, args: tuple[int, ...] = ()) -> Diagram:
    spec = BUILDERS.get(name)
    if spec is None:
        raise ValueError(f"unknown example {name!r}; choices: "
                         + ", ".join(sorted(BUILDERS)))
    if len(args) > len(spec.defaults):
        raise ValueError(
            f"example {name} takes at most {len(spec.defaults)} parameters")
    full = tuple(args) + spec.defaults[len(args):]
    return spec.build(*full)
