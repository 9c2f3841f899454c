"""Exact sutured Floer homology calculator over GF(2).

Diagrams are combinatorial cell complexes (crossings, markers, directed
labeled edges, regions with genus).  The pipeline: validate, enumerate
generators, split them into classes, find rank-one rigid domains, and read
off graded homology ranks by exact GF(2) linear algebra.
"""
from .builders import BUILDERS, build_example
from .diagram import (ALPHA, BD, BETA, CROSSING, MARKER, Diagram, Edge,
                      InvalidDiagramError, NotBalancedError, Region, Vertex,
                      balance_report, enumerate_generators)
from .domains import (Domain, NotAdmissibleError, admissibility,
                      connecting_domain, h2_rank, periodic_basis,
                      positive_connecting_domains, require_admissible)
from .homology import (NotNiceError, SFHResult, boundary_matrix,
                       niceness_report, require_nice, sfh, verify_d_squared)
from .moves import disjoint_union, insert_marker, permute_ids, stabilize
from .shd import ParseError, digest, load, parse, save, serialize
from .spinc import grading_modulus, relative_gradings, spinc_partition

__version__ = "0.1.0"

__all__ = [
    "ALPHA", "BD", "BETA", "BUILDERS", "CROSSING", "MARKER",
    "Diagram", "Domain", "Edge", "InvalidDiagramError",
    "NotAdmissibleError", "NotBalancedError", "NotNiceError", "ParseError",
    "Region", "SFHResult", "Vertex", "admissibility",
    "balance_report", "boundary_matrix", "build_example", "connecting_domain",
    "digest", "disjoint_union", "enumerate_generators",
    "grading_modulus", "h2_rank", "insert_marker", "load",
    "niceness_report", "parse", "periodic_basis",
    "permute_ids", "positive_connecting_domains", "relative_gradings",
    "require_admissible", "require_nice", "save", "serialize",
    "sfh", "spinc_partition", "stabilize", "verify_d_squared",
]
