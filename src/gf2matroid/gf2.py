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
    "subspace_masks",
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
    """Bitset of the given vectors, repeats allowed.

    Writes one binary digit per vector and parses the digits once, in
    time linear in the count and the largest vector; OR-ing 1 << v
    into a growing int copies the whole bitset per vector.
    """
    vs = list(vectors)
    if not vs:
        return 0
    if min(vs) < 0:
        raise ValueError("vectors must be nonnegative")
    digits = bytearray(b"0") * (max(vs) + 1)
    for v in vs:
        digits[v] = 49  # ord("1")
    return int(digits[::-1], 2)


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
        return mask_from(self.vectors()) & ~1


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
    are canonical.  The count equals gaussian_binomial(r, d).  Yields
    lazily, from the recursion _echelon describes.
    """
    check_rank(r, POINTSET_RANK_MAX)
    if d < 0 or d > r:
        return
    if d == 0:
        yield Subspace(r, ())
        return
    for rows, p in _echelon(d, (1 << r) - 1, (), _append_row):
        for b in range(1 << p, 2 << p):
            yield Subspace(r, rows + (b,))


def subspace_masks(r: int, d: int) -> Iterator[int]:
    """Point masks of all d-dimensional subspaces, in enumerate_subspaces order.

    The recursion of enumerate_subspaces passes down the point mask of
    each prefix's span instead of its rows: a row b grows the span S
    to S + T_b(S + {0}), T_b translating by b.  The last row b runs
    over [2^p, 2^(p+1)), so the coset T_b(S + {0}) for the next b in a
    block of 2^k consecutive values is one single-bit translation of an
    earlier one, the block doubling once per low bit; each block costs
    one full translate_mask.  No Subspace is built.  Lazy, with at most
    64 cosets held at a time.
    """
    check_rank(r, POINTSET_RANK_MAX)
    if d < 0 or d > r:
        return
    if d == 0:
        yield 0
        return

    def grow(span: int, b: int) -> int:
        return span | translate_mask(span | 1, b, r)

    steps = [(1 << j, _low_pattern(r, j)) for j in range(min(r, 6))]
    for span, p in _echelon(d, (1 << r) - 1, 0, grow):
        k = min(p, 6)
        for hi in range(1 << p, 2 << p, 1 << k):
            block = [translate_mask(span | 1, hi, r)]
            for s, low in steps[:k]:
                block += [((c & low) << s) | ((c >> s) & low) for c in block]
            for c in block:
                yield span | c


def _append_row(rows: Tuple[int, ...], b: int) -> Tuple[int, ...]:
    return rows + (b,)


def _echelon(d: int, allowed: int, state, step) -> Iterator[tuple]:
    """(state, p) for the first d - 1 rows of each reduced-echelon basis
    of dimension d >= 1 with every pivot in allowed, and the pivot p of
    its last row, ascending by tuple; every b in [2^p, 2^(p+1)) is a
    last row.  step(state, b) is the state after row b.

    The first row b runs ascending over the vectors whose top bit is an
    allowed pivot, and the rest of the basis is a reduced-echelon
    basis of dimension d - 1 whose pivots are the allowed positions
    below b's top bit where b is 0 (b must be 0 at every later pivot,
    and the later rows lie below its pivot).  Ascending b with the rest
    ascending below it is the ascending tuple order.
    """
    for p in iter_bits(allowed):
        below = allowed & ((1 << p) - 1)
        if below.bit_count() < d - 1:
            continue
        if d == 1:
            yield state, p
            continue
        for b in range(1 << p, 2 << p):
            if (below & ~b).bit_count() >= d - 1:
                yield from _echelon(d - 1, below & ~b, step(state, b), step)


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


@lru_cache(maxsize=1 << 12)
def _translation_steps(r: int, v: int) -> Tuple[Tuple[int, int], ...]:
    # (shift, low pattern) for each set bit of v; bounded, since a caller
    # at a high rank may translate by every vector once
    bits = range(v.bit_length())
    return tuple((1 << j, _low_pattern(r, j)) for j in bits if (v >> j) & 1)


def translate_mask(mask: int, v: int, r: int) -> int:
    """Bitset of {x ^ v : x in mask}."""
    for s, low in _translation_steps(r, v):
        mask = ((mask & low) << s) | ((mask >> s) & low)
    return mask


def subspace_in(mask: int, d: int, r: int) -> Optional[Tuple[int, ...]]:
    """Least greedy basis of a d-dimensional subspace inside mask, or None.

    Only nonzero vectors must lie in mask; bit 0 is ignored.  A greedy
    basis takes each b_{i+1} least outside span(b_1..b_i), so b_1 is
    the least point of the subspace.  v runs over the points ascending,
    and for each the search recurses on every point w > v with w ^ v
    also a point: a (d-1)-dimensional subspace U of those spans with v
    a subspace inside mask.  A subspace with least point v always
    leaves such a U, its points with v's top bit clear, so the first v
    with a find is the least b_1 and the first find is the least basis.
    A branch stops once fewer than 2^d - 1 points lie at or above v.
    Unchecked, for the kernels' inner loops.
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


def largest_subspace_in(mask: int, r: int, hi: int) -> Tuple[int, ...]:
    """Basis of a largest subspace of dimension at most hi inside mask.

    The subspace_in basis for the largest such d, trying d ascending;
    () when there is none.  The search ends at the first d with no
    subspace, or at hi.  A failing call searches exhaustively, so a
    caller that knows the largest dimension d_max passes it as hi and
    makes none.
    """
    check_rank(r, POINTSET_RANK_MAX)
    best: Tuple[int, ...] = ()
    for d in range(1, hi + 1):
        basis = subspace_in(mask, d, r)
        if basis is None:
            break
        best = basis
    return best
