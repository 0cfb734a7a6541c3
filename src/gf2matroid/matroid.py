"""Simple binary matroids: point sets in PG(r-1,2) and their invariants.

A matroid here is a set of distinct nonzero vectors of GF(2)^r.  The
invariants follow the usual binary-matroid dictionary: circuits are
subsets with zero XOR-sum, cocycles are hyperplane complements, the
critical number is the least number of cocycles covering all points.

Two deliberately independent routes exist for the central quantities:
odd_girth (parity BFS) against odd_girth_bruteforce (subset
enumeration), and critical_number (largest disjoint subspace) against
critical_number_bruteforce (exhaustive cocycle cover).  The test suite
asserts their agreement.  critical_number takes the top of its
subspace search from is_affine (a hyperplane of the span misses the
points exactly when they are affine); the bruteforce oracle uses
neither, so the comparison still checks both.

Both subspace invariants, critical_number (a largest subspace inside
the complement of the points) and pg_restriction (a rank-n subspace
inside the points), go through the one finder gf2.subspace_in, which
the pure-Python kernels use too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from itertools import combinations, compress
from typing import ClassVar, Dict, List, Optional, Tuple

from . import gf2
from ._backend import kernels
from .gf2 import (
    POINTSET_RANK_MAX,
    Subspace,
    check_rank,
    check_vector,
    echelon_insert,
    hyperplane_complement,
    iter_bits,
    largest_subspace_in,
    mask_from,
    nonzero_mask,
    orthogonal_complement,
    span,
    subspace_in,
    translate_mask,
)

__all__ = [
    "BinaryMatroid",
    "CocycleCover",
    "OddGirth",
    "closure",
    "contract_simplify",
    "critical_number",
    "critical_number_bruteforce",
    "has_pg_restriction",
    "is_affine",
    "is_isomorphic",
    "odd_girth",
    "odd_girth_bruteforce",
    "pg_restriction",
]


@total_ordering
@dataclass(frozen=True, eq=False)
class OddGirth:
    """Length of a shortest odd circuit; value None means there is none.

    Totally ordered, with the infinite value above every integer;
    plain ints compare as finite values.
    """

    value: Optional[int]

    INFINITE: ClassVar["OddGirth"]

    def __post_init__(self) -> None:
        if self.value is not None and (self.value < 3 or self.value % 2 == 0):
            raise ValueError("odd girth must be an odd integer >= 3")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _key(self) -> Tuple[int, int]:
        return (1, 0) if self.value is None else (0, self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, OddGirth):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __lt__(self, other) -> bool:
        if isinstance(other, OddGirth):
            key = other._key()
        elif isinstance(other, int):
            key = (0, other)
        else:
            return NotImplemented
        return self._key() < key

    def __repr__(self) -> str:
        return "OddGirth.INFINITE" if self.value is None else f"OddGirth({self.value})"


OddGirth.INFINITE = OddGirth(None)

# ASCII binary digits to the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class BinaryMatroid:
    """A set of distinct nonzero vectors of GF(2)^ambient_rank, as a bitset."""

    ambient_rank: int
    points: int

    def __post_init__(self) -> None:
        check_rank(self.ambient_rank, POINTSET_RANK_MAX)
        if self.points < 0 or self.points >> (1 << self.ambient_rank):
            raise ValueError("point bitset outside the ambient space")
        if self.points & 1:
            raise ValueError("the zero vector cannot be a point")

    @classmethod
    def from_vectors(cls, r: int, vectors) -> "BinaryMatroid":
        vectors = list(vectors)
        for v in vectors:
            check_vector(v, r)
            if v == 0:
                raise ValueError("the zero vector cannot be a point")
        return cls(r, mask_from(vectors))

    @property
    def size(self) -> int:
        return self.points.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.points == 0

    def point_list(self) -> List[int]:
        """The points, ascending: iter_bits(points) in time linear in 2^r.

        The binary digits reversed put bit v at index v; as bytes 0 and 1
        they select the indices through itertools.compress, all in C.
        iter_bits, whose lazy callers stop early, costs a big-int
        operation per point instead.
        """
        digits = bin(self.points)[:1:-1].encode().translate(_DIGIT_BYTES)
        return list(compress(range(len(digits)), digits))

    def contains(self, v: int) -> bool:
        check_vector(v, self.ambient_rank)
        return bool((self.points >> v) & 1)

    def rank(self) -> int:
        return gf2.rank_of(self.point_list(), self.ambient_rank)

    @property
    def is_full_rank(self) -> bool:
        return self.rank() == self.ambient_rank


@dataclass(frozen=True)
class CocycleCover:
    """Functionals whose hyperplane complements jointly cover a point set."""

    ambient_rank: int
    functionals: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.functionals)

    def covers(self, m: BinaryMatroid) -> bool:
        if m.ambient_rank != self.ambient_rank:
            return False
        hit = 0
        for f in self.functionals:
            hit |= hyperplane_complement(f, self.ambient_rank)
        return m.points & ~hit == 0


def closure(m: BinaryMatroid, subset_mask: int) -> int:
    """Points of m lying in the span of the given subset of points."""
    if subset_mask & ~m.points:
        raise ValueError("closure argument must be a subset of the points")
    if subset_mask == 0:
        return 0
    sp = span(list(iter_bits(subset_mask)), m.ambient_rank)
    return sp.point_mask() & m.points


def _reduced_points(m: BinaryMatroid) -> Tuple[Subspace, List[int]]:
    """The span of the points, and the points in its coordinates."""
    pts = m.point_list()
    sp = span(pts, m.ambient_rank)
    return sp, [sp.coordinates(v) for v in pts]


def odd_girth(m: BinaryMatroid) -> OddGirth:
    """Shortest odd-size subset with zero XOR-sum, by parity BFS.

    Runs over closed walks: a shortest odd closed XOR-walk repeats no
    point, so walk length equals circuit size.  Independent of
    is_affine by construction.
    """
    if m.is_empty:
        return OddGirth.INFINITE
    sp, pts = _reduced_points(m)
    frontier = 1  # {0}
    seen = [1, 0]  # visited value-sets, by walk parity
    t = 0
    while frontier:
        t += 1
        nxt = 0
        for p in pts:
            nxt |= translate_mask(frontier, p, sp.dim)
        par = t & 1
        if par and nxt & 1:
            return OddGirth(t)
        nxt &= ~seen[par]
        seen[par] |= nxt
        frontier = nxt
    return OddGirth.INFINITE


def odd_girth_bruteforce(m: BinaryMatroid) -> OddGirth:
    """Oracle twin of odd_girth: enumerate subsets in increasing odd size."""
    if m.is_empty:
        return OddGirth.INFINITE
    s = kernels.min_odd_zero_subset(m.point_list())
    return OddGirth(s) if s else OddGirth.INFINITE


def is_affine(m: BinaryMatroid) -> bool:
    """True iff one functional evaluates to 1 on every point.

    dot(f, v) = 1 over the points v is a linear system in f, consistent
    exactly when appending a coordinate 1 to every point leaves their
    rank unchanged.  The empty set is affine.
    """
    pts = m.point_list()
    r = m.ambient_rank
    return gf2.rank_of(pts, r) == gf2.rank_of([v << 1 | 1 for v in pts], r + 1)


def critical_number(m: BinaryMatroid) -> Tuple[int, CocycleCover]:
    """Least number of cocycles covering the points, with a witness cover.

    Computed in the span of the points (unused ambient dimensions do
    not matter) as dim minus the largest dimension d_max of a subspace
    disjoint from the points (gf2.largest_subspace_in); the cover is a
    basis of that subspace's annihilator, lifted back to ambient
    coordinates.

    The points are nonempty, so d_max < dim.  A hyperplane of the span
    misses them exactly when one functional is 1 on every point, that
    is, when they are affine; so d_max = dim - 1 for affine sets and
    d_max <= dim - 2 otherwise.  That bound is the search's hi, so only
    sets with critical number 3 or more make a failing (exhaustive)
    call, at dimension dim - cn + 1.
    """
    r = m.ambient_rank
    if m.is_empty:
        return 0, CocycleCover(r, ())
    sp, pts = _reduced_points(m)
    dim = sp.dim
    free = nonzero_mask(dim) & ~mask_from(pts)
    hi = dim - 1 if is_affine(m) else dim - 2
    basis = largest_subspace_in(free, dim, hi)
    d_max = len(basis)
    witness = span(basis, dim)
    pivots = [b.bit_length() - 1 for b in sp.basis]
    lifted = []
    for g in orthogonal_complement(witness).basis:
        f = 0
        for i in iter_bits(g):
            f |= 1 << pivots[i]
        lifted.append(f)
    cover = CocycleCover(r, tuple(sorted(lifted)))
    if cover.size != dim - d_max or not cover.covers(m):
        raise RuntimeError("critical number cover failed re-verification")
    return dim - d_max, cover


def critical_number_bruteforce(m: BinaryMatroid) -> int:
    """Oracle twin of critical_number: try all covers in increasing size."""
    r = m.ambient_rank
    if m.is_empty:
        return 0
    functionals = list(range(1, 1 << r))
    coverage = {f: hyperplane_complement(f, r) & m.points for f in functionals}
    for k in range(1, r + 1):
        for combo in combinations(functionals, k):
            hit = 0
            for f in combo:
                hit |= coverage[f]
            if hit == m.points:
                return k
    raise AssertionError("unit functionals always cover")  # pragma: no cover


def pg_restriction(m: BinaryMatroid, n: int) -> Optional[Subspace]:
    """A rank-n subspace with all nonzero vectors in m, or None.

    The witness is the span of the lexicographically least greedy
    canonical basis among such subspaces (gf2.subspace_in).
    """
    r = m.ambient_rank
    if not 1 <= n <= r:
        raise ValueError(f"restriction order must be in [1, {r}], got {n}")
    basis = subspace_in(m.points, n, r)
    return None if basis is None else span(basis, r)


def has_pg_restriction(m: BinaryMatroid, n: int) -> bool:
    return pg_restriction(m, n) is not None


def contract_simplify(m: BinaryMatroid, subset_mask: int) -> BinaryMatroid:
    """Contract a subset of points and simplify (drop loops and parallels)."""
    if subset_mask & ~m.points:
        raise ValueError("contraction argument must be a subset of the points")
    if subset_mask == 0:
        return m
    r = m.ambient_rank
    w = span(list(iter_bits(subset_mask)), r)
    new_r = r - w.dim
    if new_r == 0:
        raise ValueError("contracting a spanning subset leaves rank 0")
    pivots = {b.bit_length() - 1 for b in w.basis}
    free_positions = [q for q in range(r - 1, -1, -1) if q not in pivots]
    out = 0
    for v in iter_bits(m.points & ~subset_mask):
        rep = w.reduce(v)
        if rep == 0:
            continue  # collapses into the contracted flat
        packed = 0
        for i, q in enumerate(free_positions):
            if (rep >> q) & 1:
                packed |= 1 << (new_r - 1 - i)
        out |= 1 << packed
    return BinaryMatroid(new_r, out)


def _vector_labels(m: BinaryMatroid) -> List[int]:
    """2|M ∩ T_u(M)| + [u in M] for every vector u of GF(2)^r, T_u
    translating by u."""
    r, pts = m.ambient_rank, m.points
    return [
        (pts & translate_mask(pts, u, r)).bit_count() << 1 | ((pts >> u) & 1)
        for u in range(1 << r)
    ]


def is_isomorphic(a: BinaryMatroid, b: BinaryMatroid) -> bool:
    """Whether an invertible GF(2) map carries the points of a onto b.

    Both matroids must be full rank.  Each vector u is labelled by
    whether it is a point and by |M ∩ T_u(M)|.  A linear bijection g
    with g(A) = B carries A ∩ T_u(A) onto B ∩ T_g(u)(B), so u and g(u)
    share a label; equal label multisets are therefore necessary, and
    they give every point label of a an image among the points of b.
    The search takes a basis of a greedily from the points whose label
    is rarest in b and maps each basis vector to a point of b with the
    same label outside the span of the earlier images, comparing labels
    over the mapped span.  A full assignment is a linear bijection g
    with label(g(u)) = label(u) for all 2^r vectors u; the labels
    include membership, so g(A) = B.  The answer is exact.  Labels
    that are constant on the points and on the non-points, as on the
    support of a bent function, prune nothing, and from rank 8 the
    backtrack then takes up to a minute.
    """
    for m in (a, b):
        if not m.is_full_rank:
            raise ValueError("is_isomorphic requires full-rank matroids")
    if a.ambient_rank != b.ambient_rank or a.size != b.size:
        return False
    r = a.ambient_rank
    lab_a, lab_b = _vector_labels(a), _vector_labels(b)
    if sorted(lab_a) != sorted(lab_b):
        return False
    images: Dict[int, List[int]] = {}
    for t in b.point_list():
        images.setdefault(lab_b[t], []).append(t)

    pivots: Dict[int, int] = {}
    by_class = sorted(a.point_list(), key=lambda v: len(images[lab_a[v]]))
    basis = [v for v in by_class if echelon_insert(pivots, v)]

    def extend(i: int, pairs: List[Tuple[int, int]]) -> bool:
        if i == r:
            return True
        v = basis[i]
        mapped = {y for _, y in pairs}
        for t in images[lab_a[v]]:
            if t in mapped:
                continue  # image would be linearly dependent
            new = [(x ^ v, y ^ t) for x, y in pairs]
            if all(lab_a[x] == lab_b[y] for x, y in new) and extend(i + 1, pairs + new):
                return True
        return False

    return extend(0, [(0, 0)])
