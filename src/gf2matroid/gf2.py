"""Linear algebra over GF(2) on integer-encoded vectors and bitset point sets.

A vector of GF(2)^r is an int in [0, 2^r); coordinate 1 is the most
significant of the r used bits, so the bit string "10...0" encodes to
2^(r-1).  A set of vectors is a bitset: an int whose bit v is set iff
vector v belongs to the set.  Bitsets index the whole 2^r universe, so
they are only used while r <= POINTSET_RANK_MAX; plain vector
arithmetic works up to VECTOR_RANK_MAX.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "VECTOR_RANK_MAX",
    "POINTSET_RANK_MAX",
    "Subspace",
    "check_rank",
    "check_vector",
    "dot",
    "echelon_insert",
    "enumerate_subspaces",
    "gaussian_binomial",
    "hyperplane_complement",
    "iter_bits",
    "largest_subspace_in",
    "mask_from",
    "nonzero_mask",
    "orthogonal_complement",
    "rank_of",
    "span",
    "subspace_in",
    "translate_mask",
]

VECTOR_RANK_MAX = 62
POINTSET_RANK_MAX = 20


def check_rank(r: int, limit: int = VECTOR_RANK_MAX) -> None:
    if not 1 <= r <= limit:
        raise ValueError(f"ambient rank must be in [1, {limit}], got {r}")


def check_vector(v: int, r: int) -> None:
    if not 0 <= v < (1 << r):
        raise ValueError(f"vector {v} outside GF(2)^{r}")


def dot(f: int, v: int) -> int:
    """Standard bilinear form: parity of the AND of the two encodings."""
    return (f & v).bit_count() & 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from(vectors: Iterable[int]) -> int:
    m = 0
    for v in vectors:
        m |= 1 << v
    return m


def nonzero_mask(r: int) -> int:
    """Bitset of all 2^r - 1 nonzero vectors."""
    return (1 << (1 << r)) - 2


def echelon_insert(pivot_row: dict[int, int], v: int) -> int:
    """One elimination step: reduce v against rows keyed by their pivot.

    A nonzero residue becomes a new row under its own pivot.  Returns
    the residue, which is 0 iff v already lay in the span of the rows.
    """
    while v:
        p = v.bit_length() - 1
        row = pivot_row.get(p)
        if row is None:
            pivot_row[p] = v
            break
        v ^= row
    return v


def rank_of(vectors: Iterable[int], r: int) -> int:
    """Rank of a collection of vectors over GF(2)."""
    pivot_row: dict[int, int] = {}
    for v in vectors:
        check_vector(v, r)
        echelon_insert(pivot_row, v)
    return len(pivot_row)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^r held as a reduced-echelon basis.

    Basis vectors are strictly decreasing; each pivot (top bit) occurs
    in exactly one basis vector.  This makes the representation
    canonical: two Subspace objects are equal iff the subspaces are.
    """

    ambient_rank: int
    basis: Tuple[int, ...]

    def __post_init__(self) -> None:
        check_rank(self.ambient_rank)
        prev_pivot = -1
        lower_pivots = 0
        for b in reversed(self.basis):
            check_vector(b, self.ambient_rank)
            if b == 0:
                raise ValueError("zero vector in basis")
            p = b.bit_length() - 1
            if p <= prev_pivot:
                raise ValueError("basis is not in echelon order")
            if b & lower_pivots:
                raise ValueError("basis is not reduced: a bit at a later pivot")
            prev_pivot = p
            lower_pivots |= 1 << p

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        """Canonical coset representative of v modulo the subspace."""
        check_vector(v, self.ambient_rank)
        for b in self.basis:
            if (v >> (b.bit_length() - 1)) & 1:
                v ^= b
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    __contains__ = contains

    def coordinates(self, v: int) -> int:
        """Coefficient bitmask of v in the basis (bit i <-> basis[i]).

        Raises ValueError when v lies outside the subspace.
        """
        c = 0
        for i, b in enumerate(self.basis):
            if (v >> (b.bit_length() - 1)) & 1:
                v ^= b
                c |= 1 << i
        if v:
            raise ValueError("vector not in subspace")
        return c

    def vectors(self) -> List[int]:
        """All 2^dim elements, ascending, zero included."""
        out = [0]
        for b in self.basis:
            out += [x ^ b for x in out]
        out.sort()
        return out

    def point_mask(self) -> int:
        """Bitset of the nonzero elements."""
        check_rank(self.ambient_rank, POINTSET_RANK_MAX)
        m = 0
        for v in self.vectors():
            m |= 1 << v
        return m & ~1


def span(vectors: Iterable[int], r: int) -> Subspace:
    """Reduced-echelon span of the given vectors."""
    check_rank(r)
    pivot_row: dict[int, int] = {}
    for v in vectors:
        check_vector(v, r)
        echelon_insert(pivot_row, v)
    basis = sorted(pivot_row.values(), reverse=True)
    # back-substitute; xors with later rows cascade to strictly lower pivots
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if (basis[i] >> (basis[j].bit_length() - 1)) & 1:
                basis[i] ^= basis[j]
    return Subspace(r, tuple(basis))


def orthogonal_complement(s: Subspace) -> Subspace:
    """All f with dot(f, v) = 0 for every v in s."""
    r = s.ambient_rank
    pivots = [b.bit_length() - 1 for b in s.basis]
    pivot_set = set(pivots)
    kernel = []
    for q in range(r):
        if q in pivot_set:
            continue
        w = 1 << q
        for b, p in zip(s.basis, pivots):
            if (b >> q) & 1:
                w |= 1 << p
        kernel.append(w)
    return span(kernel, r)


def gaussian_binomial(r: int, d: int) -> int:
    """Number of d-dimensional subspaces of GF(2)^r, by the product formula."""
    if d < 0 or d > r:
        return 0
    num = 1
    den = 1
    for i in range(d):
        num *= (1 << r) - (1 << i)
        den *= (1 << d) - (1 << i)
    return num // den


def enumerate_subspaces(r: int, d: int) -> Iterator[Subspace]:
    """All d-dimensional subspaces of GF(2)^r, ascending by basis tuple.

    Every subspace appears exactly once because reduced-echelon bases
    are canonical.  The count equals gaussian_binomial(r, d).
    """
    check_rank(r, POINTSET_RANK_MAX)
    if d < 0 or d > r:
        return
    if d == 0:
        yield Subspace(r, ())
        return
    tuples: List[Tuple[int, ...]] = []
    for pivots in combinations(range(r - 1, -1, -1), d):
        pivot_set = set(pivots)
        row_choices = []
        for p in pivots:
            free = [q for q in range(p) if q not in pivot_set]
            values = []
            for k in range(1 << len(free)):
                v = 1 << p
                for idx, q in enumerate(free):
                    if (k >> idx) & 1:
                        v |= 1 << q
                values.append(v)
            row_choices.append(values)
        for rows in product(*row_choices):
            tuples.append(rows)
    tuples.sort()
    for t in tuples:
        yield Subspace(r, t)


def hyperplane_complement(f: int, r: int) -> int:
    """Bitset of all v with dot(f, v) = 1; never contains the zero vector."""
    check_rank(r, POINTSET_RANK_MAX)
    check_vector(f, r)
    if f == 0:
        raise ValueError("functional must be nonzero")
    odd = 0
    for j in range(r):
        width = 1 << j
        if (f >> j) & 1:
            half = ((1 << width) - 1) ^ odd  # even-parity mask of the low block
        else:
            half = odd
        odd |= half << width
    return odd


@lru_cache(maxsize=None)
def _low_pattern(r: int, j: int) -> int:
    # bitset over [0, 2^r) of indices whose bit j is clear
    s = 1 << j
    p = (1 << s) - 1
    width = 2 * s
    total = 1 << r
    while width < total:
        p |= p << width
        width *= 2
    return p


def translate_mask(mask: int, v: int, r: int) -> int:
    """Bitset of {x ^ v : x in mask}."""
    j = 0
    while v:
        if v & 1:
            s = 1 << j
            low = _low_pattern(r, j)
            mask = ((mask & low) << s) | ((mask >> s) & low)
        v >>= 1
        j += 1
    return mask


def subspace_in(mask: int, d: int, r: int) -> Optional[Tuple[int, ...]]:
    """Least greedy basis of a d-dimensional subspace inside mask, or None.

    Only nonzero vectors must lie in mask; bit 0 is ignored.  A greedy
    basis takes each b_{i+1} least outside span(b_1..b_i), so b_1 = v is
    the least point, and b_2..b_d is the greedy basis of the points w
    with v's top bit clear, each a point above v with w ^ v a point.
    So v runs ascending, the search recurses on those w, and the first
    find is the least basis.  A branch stops once fewer than 2^d - 1
    points lie at or above v.  Unchecked, for the kernels' inner loops.
    """
    if d <= 0:
        return ()
    mask &= ~1
    need = (1 << d) - 1
    left = mask.bit_count()
    if left < need:
        return None
    if d == 1:
        return ((mask & -mask).bit_length() - 1,)
    for v in iter_bits(mask):
        if left < need:
            return None  # fewer than 2^d - 1 points at or above v
        left -= 1
        rest = mask & translate_mask(mask, v, r) & ~((1 << (v + 1)) - 1)
        sub = subspace_in(rest, d - 1, r)
        if sub is not None:
            return (v,) + sub
    return None


def largest_subspace_in(mask: int, r: int, lo: int, hi: int) -> Tuple[int, ...]:
    """Basis of a largest subspace of dimension in (lo, hi] inside mask.

    The subspace_in basis for the largest such d, trying d ascending;
    () when there is none.
    """
    check_rank(r, POINTSET_RANK_MAX)
    best: Tuple[int, ...] = ()
    for d in range(lo + 1, hi + 1):
        basis = subspace_in(mask, d, r)
        if basis is None:
            break
        best = basis
    return best
