"""Simple binary matroids as point sets in PG(r-1,2).

Core objects: BinaryMatroid (a set of nonzero GF(2)^r vectors held as
one integer bitset), invariants (odd girth, affineness, critical
number, projective-geometry restrictions), the classical families
(projective and affine geometries, flat complements, circuits, and
the doubling constructions), and exhaustive extremal search with
proof-grade exactness at small rank.

Hot kernels run from a compiled extension when available; a pure
Python twin with identical traversal order is the fallback.  See
backend_name().
"""

from ._backend import backend_name
from .constructions import (
    ag,
    bose_burton,
    build_family,
    circuit,
    conical_lift,
    doubling,
    extremal_gs,
    extremal_odd_girth,
    pg,
)
from .files import MatroidFileError, parse, read_matroid, render, write_matroid
from .gf2 import (
    POINTSET_RANK_MAX,
    VECTOR_RANK_MAX,
    Subspace,
    dot,
    enumerate_subspaces,
    gaussian_binomial,
    hyperplane_complement,
    iter_bits,
    mask_from,
    nonzero_mask,
    orthogonal_complement,
    rank_of,
    span,
    translate_mask,
)
from .matroid import (
    BinaryMatroid,
    CocycleCover,
    OddGirth,
    closure,
    contract_simplify,
    critical_number,
    critical_number_bruteforce,
    has_pg_restriction,
    is_affine,
    is_isomorphic,
    odd_girth,
    odd_girth_bruteforce,
    pg_restriction,
)
from .search import (
    ConstraintSet,
    SearchReport,
    VerifyReport,
    max_size,
    max_size_complement,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "POINTSET_RANK_MAX",
    "VECTOR_RANK_MAX",
    "BinaryMatroid",
    "CocycleCover",
    "ConstraintSet",
    "MatroidFileError",
    "OddGirth",
    "SearchReport",
    "Subspace",
    "VerifyReport",
    "ag",
    "backend_name",
    "bose_burton",
    "build_family",
    "circuit",
    "closure",
    "conical_lift",
    "contract_simplify",
    "critical_number",
    "critical_number_bruteforce",
    "dot",
    "doubling",
    "enumerate_subspaces",
    "extremal_gs",
    "extremal_odd_girth",
    "gaussian_binomial",
    "has_pg_restriction",
    "hyperplane_complement",
    "is_affine",
    "is_isomorphic",
    "iter_bits",
    "mask_from",
    "max_size",
    "max_size_complement",
    "nonzero_mask",
    "odd_girth",
    "odd_girth_bruteforce",
    "orthogonal_complement",
    "parse",
    "pg",
    "pg_restriction",
    "rank_of",
    "read_matroid",
    "render",
    "span",
    "translate_mask",
    "verify_theorem",
    "write_matroid",
]
