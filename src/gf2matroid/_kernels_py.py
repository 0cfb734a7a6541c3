"""Pure-Python search kernels.

Same call contracts as the compiled module gf2matroid._kernels; the
backend is picked in gf2matroid._backend at import time.  Traversal
order, pruning rules and node counting are identical in both, so the
two backends return bit-identical results.

All point sets are int bitsets over the 2^r vector encodings (bit v
set iff vector v present).  The forward search's flat tests call
gf2.subspace_in, the finder the invariants use; _kernels.c has its own
twin of it.

The forward search keeps its candidate frontier as a bitset, so each
per-node rule is a few mask operations: the next point is the top
bit, the odd-girth gate drops the sums of even size at once, the size
bound is a bit count, and the half-space bound splits the frontier by
hit[f] for each functional f the chosen set still leaves at 1.  A
completion that is not affine and has no 3-circuit holds at most
2^(r-2) points on either side of the hyperplane f = 0, and when no
candidate has f = 0 every completion stays affine; both tests are two
thresholds on the count of one side.  A node's exclude branch is the
next pass of its own loop, not a call.  The flat-freeness gate
is incremental.  Every candidate w left after v joins the chosen set C
was feasible for C without v, so a new rank-n flat F inside C + {w}
must pass through both v and w.  F then holds v ^ w, a chosen point,
so only the w in T_v(C) are tested, T_x translating by x.  For them
F = span(v, w) + U for an (n-2)-dimensional U whose nonzero vectors u
have u, u ^ v, u ^ w and u ^ v ^ w all in C: they lie in P & T_w(P)
with P = C & T_v(C), a set that misses span(v, w).  P is computed
once per include, so each tested w costs one translate and one
subspace_in call on a much sparser mask.  The forced points pass
through include too: every point is feasible for the empty set, and
include keeps the frontier feasible.  _kernels.c takes the same steps
on word arrays.

The complement search keeps all three of its per-node tests
incremental.  The greedy packing bound takes the lowest uncovered
subspace i and drops meets[i], every subspace sharing a point with
S_i, memoised per call; that is the index-order packing in one step
per packed subspace.  The fail-first choice keeps |S_i & avail| for
every subspace as bit-planes over the subspace indices: removing a
point decrements the counters of the subspaces through it, and
narrowing the uncovered set from the top plane down leaves those of
least count; the node returns when that count is 0.
The forbidden-flat test keeps |F \\ B| for every t-flat F as t
bit-planes: B never holds a whole t-flat, so a point p outside B
closes one exactly when a flat through p has count 1, and a child
decrements the counters of the flats through p.  The t-flats are
listed once, [r, t]_2 of them.  _kernels.c keeps the same three
structures as word bitsets.  With symmetry on, every node
branches on the points of its subspace inside span(B) and on one point
outside it; complement_search gives the argument.

The complement search sets up its tables as whole-array work.  The
flats come as point masks from gf2.subspace_masks, one translation per
row and no Subspace object.  Every per-point column (the subspaces
through v, the flats through v) and the root counter planes are the
columns of a bit matrix whose rows are masks; _transpose packs the
rows into bytes once and reads each column with a strided slice, a
byte translation to ASCII digits and int(s, 2), all linear and in C.
"""

from __future__ import annotations

import sys
from time import monotonic
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gf2 import (
    echelon_insert,
    gaussian_binomial,
    hyperplane_complement,
    iter_bits,
    nonzero_mask,
    subspace_in,
    translate_mask,
)
from .gf2 import subspace_masks as flat_masks  # complement_search has a parameter of its name

__all__ = [
    "BACKEND_NAME",
    "KERNEL_RANK_MAX",
    "complement_search",
    "forward_search",
    "has_subspace_mask",
    "min_odd_zero_subset",
]

BACKEND_NAME = "python"
KERNEL_RANK_MAX = 12

_CHECK_INTERVAL = 4096
_LIST_POLL = 256  # masks read or flats listed between deadline polls
_MEETS_MAX_WORDS = 1 << 23  # 64-bit words of meets rows a complement search keeps


class _Timeout(Exception):
    pass


def _check_rank(r: int) -> None:
    if not 1 <= r <= KERNEL_RANK_MAX:
        raise ValueError(f"kernel rank must be in [1, {KERNEL_RANK_MAX}], got {r}")


def _check_mask(mask: int, r: int) -> None:
    if mask < 0 or mask >> (1 << r):
        raise ValueError(f"mask has bits outside the 2^{r} vectors of GF(2)^{r}")


# _BIT_DIGITS[j] maps a byte to ASCII "1" where its bit j is set, else "0"
_BIT_DIGITS = tuple((b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8))


def _transpose(
    masks: Iterable[int], width: int, poll: Optional[Callable[[], None]] = None
) -> List[int]:
    """Columns of a bit matrix: bit k of column c is set iff bit c of masks[k] is.

    Each mask becomes one row of a byte matrix through to_bytes,
    appended in place, so the peak stays near the matrix itself.  The
    matrix is reversed once, in place, so the rows run last to first
    and each row's bytes high to low; a strided slice then holds byte
    c >> 3 of every row, last row first, and translating it to ASCII
    digits reads as column c in base 2.  Past the one to_bytes per row,
    every step is linear and runs in C.  poll, when given, runs after
    each column.
    """
    nbytes = (width + 7) >> 3
    matrix = bytearray()
    for m in masks:
        matrix += m.to_bytes(nbytes, "little")
    matrix.reverse()
    if not matrix:
        return [0] * width
    cols = []
    for c in range(width):
        i, j = divmod(c, 8)
        if j == 0:
            stripe = matrix[nbytes - 1 - i :: nbytes]
        cols.append(int(stripe.translate(_BIT_DIGITS[j]), 2))
        if poll is not None:
            poll()
    return cols


def _polled(masks: Iterable[int], poll: Callable[[], None]) -> Iterator[int]:
    """masks, running poll after every _LIST_POLL of them."""
    for k, m in enumerate(masks, 1):
        yield m
        if k % _LIST_POLL == 0:
            poll()


def _decrement(planes: List[int], borrow: int) -> List[int]:
    """Bit-sliced counters (plane j holds bit j of every count), minus 1 where
    borrow is set."""
    out = []
    for plane in planes:
        out.append(plane ^ borrow)
        borrow &= ~plane
    return out


def has_subspace_mask(mask: int, d: int, r: int) -> bool:
    """True iff some d-dimensional subspace has all nonzero vectors in mask."""
    _check_rank(r)
    _check_mask(mask, r)
    return subspace_in(mask, d, r) is not None


def min_odd_zero_subset(points: Sequence[int]) -> int:
    """Smallest odd t >= 3 with a t-subset of points XOR-ing to zero, else 0.

    Straight from the definition: one point at a time, grow the table
    of every (XOR value, exact subset size) pair over genuine subsets,
    then read the smallest odd size landing on zero.  No span
    reduction and no walk shortcut.  Supports up to 63 points.
    """
    pts = sorted(points)
    m = len(pts)
    if m > 63:
        raise ValueError(f"subset oracle supports at most 63 points, got {m}")
    if m < 3:
        return 0
    table = {0: 1}  # xor value -> bitmask of achievable subset sizes
    for p in pts:
        for x, sizes in list(table.items()):
            y = x ^ p
            table[y] = table.get(y, 0) | (sizes << 1)
    sizes = table[0]
    for s in range(3, m + 1, 2):
        if (sizes >> s) & 1:
            return s
    return 0


def forward_search(
    r: int,
    min_odd_girth: int,
    pg_free_order: int,
    min_critical: int,
    full_rank: bool,
    forced_in: Sequence[int],
    forced_out_mask: int,
    budget: Optional[float],
    prune: bool = True,
) -> Tuple[int, int, int, bool]:
    """Maximum point set under the given constraints, include-first DFS.

    Candidates are offered in decreasing encoding.  Hereditary
    constraints (odd girth, no full flat of order pg_free_order) gate
    every insertion; the others (critical number, full rank) are tested
    whenever the current set would improve the best.  min_odd_girth is
    odd, or below 4 to demand nothing; an even value >= 4 raises
    ValueError.  Returns (best_size or -1, witness_mask, nodes,
    completed).

    The candidate frontier feas is a bitset: the next point is its top
    bit, and the odd-girth gate and the bounds are a few mask
    operations per node.  A node includes that point and recurses; once
    the child returns, the exclude branch is the next pass of the
    node's own loop.  It is the node's last step, so looping visits the
    nodes in the order recursing would, with half the Python calls and
    stack depth.

    The odd-girth gate removes sums[2] | sums[4] | ... | sums[T] at
    once, sums[t] being the sums of t chosen points and T = girth - 3.
    T is capped at the largest even number <= r, which leaves every
    verdict unchanged: an odd circuit has at most r + 1 points, since
    its rank is one less than its size.  Once girth - 3 >= r, the gate
    has kept the chosen set free of odd circuits, so any odd zero-sum
    set through a new point w holds an odd circuit through w, of at
    most r + 1 points, and that puts w in some sums[t] with even t <= r.

    After v is included, the flat gate re-tests a surviving candidate
    w only for flats through v and w.  Every w in feas was already
    feasible for the chosen set without v, so any new rank-n flat F in
    chosen + {v, w} contains both v and w.  F then contains v ^ w,
    which must be a chosen point, so only the w in
    feas & T_v(chosen) are tested, T_x being translation by x.  For
    them F = span(v, w) + U with U an (n-2)-dimensional subspace whose
    nonzero vectors lie in chosen & T_v(chosen) & T_w(chosen) &
    T_{v^w}(chosen).  That set avoids span(v, w), so the test is one
    subspace_in(rest, n-2, r) call on a much sparser mask, and the
    verdict, the tree and the node count are those of the full test.
    Every frontier point is feasible for its chosen set, by induction:
    every point is feasible for the empty set (none under order-1
    freeness), and include keeps only feasible points.  So the forced
    points go through include in turn from the empty set; one that has
    left the frontier ends the search with best -1 and no node.
    forced_out_mask is cleared last, so a forced point may lie in it.

    The half-space bound (critical demand >= 2) splits feas, for each
    functional f in covers (those with f.c = 1 for every chosen c),
    into zero = feas & ~hit[f] and one = feas & hit[f]; hit[w], the
    functionals hitting w, is symmetric in f and w.  covers is an
    affine subspace that halves with each independent chosen point.
    If zero is empty every completion stays affine, and the node
    returns: the affine-reach prune.  With odd girth >= 5 (T >= 2) the
    node also returns when
        min(size + |one|, 2^(r-2)) + min(|zero|, 2^(r-2)) <= best.
    Any valid completion M is non-affine, so it holds a point w with
    f.w = 0, and M holds no 3-circuit.
    - Translation by w splits the 2^(r-1) points with f = 1 into
      2^(r-2) pairs {x, x ^ w}.  M holds at most one point of each
      pair, since x, x ^ w and w would form a 3-circuit.
    - M's points with f = 0 form a set S in the hyperplane ker f with
      no 3-circuit.  For u in S, S and S ^ u are disjoint inside ker f,
      so |S| <= 2^(r-2).
    So M has at most the bound's number of points and cannot beat best.
    The test runs as two thresholds on |one|, with half = 2^(r-2), or
    2^r when T < 2, which no side reaches.  The size bound has passed,
    so size + |feas| > best, and the test holds exactly when
    2 * half <= best, or |zero| <= max(best - half, 0), or
    |one| <= best - half - size: with both sides capped the sum is
    2 * half, with neither it is size + |feas|, and with one it is half
    plus the other side.  An empty zero side meets the second
    threshold, which makes it the affine-reach prune as well.

    The rank the full-rank test reads is kept as the span of the chosen
    set, a bitset grown by one translation whenever a point outside it
    joins.

    The deadline is polled every _CHECK_INTERVAL nodes and after every
    flat-finder call.  One call at rank 7 can cost as much as thousands
    of nodes, and far more than a clock read, so polling only after a
    fixed number of calls would let the search overrun its budget by
    seconds.
    """
    _check_rank(r)
    if min_odd_girth >= 4 and min_odd_girth % 2 == 0:
        raise ValueError(f"min_odd_girth must be odd, got {min_odd_girth}")
    n_all = 1 << r
    for v in forced_in:
        if not 0 < v < n_all:
            raise ValueError(f"forced_in vector outside [1, 2^{r})")
    if len(set(forced_in)) != len(forced_in):
        raise ValueError("forced_in repeats a vector")
    _check_mask(forced_out_mask, r)
    deadline = monotonic() + budget if budget is not None else None
    # functionals hitting v, as a bitset over f; dot is symmetric
    hit = [0] * n_all
    for v in range(1, n_all):
        hit[v] = hyperplane_complement(v, r)
    # an odd circuit has at most r + 1 points: see the docstring
    T = min(min_odd_girth - 3, r & ~1) if min_odd_girth >= 5 else 0
    evens = range(2, T + 1, 2)
    # the most points a set with no 3-circuit holds on one side of a
    # hyperplane; a cap above 2^r leaves the half-space bound inert
    half = 1 << (r - 2) if T >= 2 else n_all
    pg_n = pg_free_order
    whole = (1 << n_all) - 1  # the span of a full-rank set

    best = -1
    best_mask = 0
    nodes = 0

    def poll() -> None:
        if deadline is not None and monotonic() > deadline:
            raise _Timeout

    def finds(mask: int, d: int) -> bool:
        """subspace_in(mask, d, r) found a subspace; polls the deadline after it."""
        found = subspace_in(mask, d, r) is not None
        poll()
        return found

    def passes_extra(chosen: int, covers: int, span: int) -> bool:
        if min_critical >= 2 and covers != 0:
            return False
        if min_critical >= 3:
            free = nonzero_mask(r) & ~chosen
            if finds(free, r - min_critical + 1):
                return False
        if full_rank and span != whole:
            return False
        return True

    def include(v, feas, chosen, sums, covers, span):
        """The child's state: v joins chosen, and feas (without v) keeps
        the w still feasible."""
        chosen |= 1 << v
        sums = list(sums)
        for t in range(T, 1, -1):
            sums[t] |= translate_mask(sums[t - 1], v, r)
        if T >= 1:
            sums[1] |= 1 << v
        covers &= hit[v]
        if not (span >> v) & 1:
            span |= translate_mask(span, v, r)
        # the sums of an even number of chosen points close odd circuits
        rest = feas
        for t in evens:
            rest &= ~sums[t]
        if pg_n >= 3:
            # a new flat through v and w holds v ^ w, a chosen point
            tv = translate_mask(chosen, v, r)
            pair = chosen & tv
            for w in iter_bits(rest & tv):
                if finds(pair & translate_mask(pair, w, r), pg_n - 2):
                    rest ^= 1 << w
        return rest, chosen, sums, covers, span

    def dfs(feas, chosen, size, sums, covers, span):
        nonlocal best, best_mask, nodes
        while True:
            nodes += 1
            if deadline is not None and nodes % _CHECK_INTERVAL == 0:
                if monotonic() > deadline:
                    raise _Timeout
            if size > best and passes_extra(chosen, covers, span):
                best = size
                best_mask = chosen
            if not feas:
                return
            if prune:
                n_feas = feas.bit_count()
                slack = size + n_feas - best
                if slack <= 0:
                    return  # the size bound
                if covers and min_critical >= 2:
                    if 2 * half <= best:
                        return  # both sides capped: the half-space bound
                    # the half-space bound as two thresholds on |one|
                    lo = best - half - size
                    hi = n_feas - (best - half if best > half else 0)
                    fs = covers
                    while fs:
                        f = fs.bit_length() - 1
                        n_one = (feas & hit[f]).bit_count()
                        if n_one <= lo or n_one >= hi:
                            return
                        fs ^= 1 << f
            v = feas.bit_length() - 1
            feas ^= 1 << v
            rest, c2, s2, cov2, span2 = include(v, feas, chosen, sums, covers, span)
            dfs(rest, c2, size + 1, s2, cov2, span2)

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * n_all + 100))
    # the empty set: every point is feasible (none under order-1 freeness)
    feas = nonzero_mask(r) if pg_n != 1 else 0
    chosen = 0
    sums = [0] * (T + 1)
    if T >= 0:
        sums[0] = 1  # the empty subset sums to zero
    covers = nonzero_mask(r)
    span = 1  # the zero vector
    completed = True
    try:
        for v in forced_in:
            if not (feas >> v) & 1:
                break  # v is no longer feasible
            feas, chosen, sums, covers, span = include(
                v, feas ^ (1 << v), chosen, sums, covers, span
            )
        else:
            dfs(feas & ~forced_out_mask, chosen, len(forced_in), sums, covers, span)
    except _Timeout:
        completed = False
    return best, best_mask, nodes, completed


def complement_search(
    r: int,
    subspace_masks: Sequence[int],
    forbidden_dim: int,
    full_rank: bool,
    max_blocker: int,
    budget: Optional[float],
    symmetry: bool,
) -> Tuple[int, int, int, bool]:
    """Smallest blocker B hitting every given subspace, branch and bound.

    Branches over the points of an uncovered subspace with the fewest
    still-available points, excluding earlier siblings so each minimal
    blocker is generated once.  A t = forbidden_dim flat fully inside B
    is rejected as soon as it closes; t must lie in [0, r], and 0
    forbids nothing.  Bit 0 of each subspace mask is ignored: the zero
    vector is no point.  Returns (best_size or -1, blocker_mask, nodes,
    completed).

    A node is pruned when b_size + max(ceil(u / maxcov), packed) exceeds
    the window, u being the number of uncovered subspaces, maxcov the
    most subspaces through one point and packed the size of a greedy
    packing: uncovered subspaces taken in index order, each kept when
    it is disjoint from those kept before.  The same packing comes from
    taking the lowest index i left in the uncovered set and dropping
    meets[i], the subspaces sharing a point with S_i (i included), so
    it costs one step per packed subspace.  meets[i] is the OR of
    through[v] over the points v of S_i, built the first time i is
    packed; a table for every i would not fit at high rank.  The rows
    kept hold at most _MEETS_MAX_WORDS words of a bitset over the
    family, and a row past that is rebuilt at each use: a long line
    search at rank 10 keeps about 64 MB of rows, where a row for each
    of the 174,251 lines would take 3.8 GB.  The count
    stops once it passes the window, which leaves the prune unchanged.

    The fail-first choice keeps |S_i & avail| for every subspace as
    bit-planes over the subspace indices, plane j holding bit j of
    every count; the root counts are the masks' point counts, which may
    differ.  Only the counts of uncovered subspaces are read, and a
    child covers every subspace through its new point p, so the child
    takes avail and the planes as they stand; the sibling loop removes
    p from both (a borrow chain over through[p]) only before the next
    sibling.  Narrowing cand = uncov plane by plane from the top (keep
    cand & ~plane whenever it is nonempty) leaves the uncovered
    subspaces of least count, and the lowest of them is the one a scan
    recounting each uncovered subspace keeps with a strict <.  That
    count is 0, the subspace having no available point, exactly when
    some uncovered subspace can no longer be hit; the node returns.

    The forbidden-flat test keeps |F \\ B| for every t-flat F as t
    bit-planes over the flats (the counters all read 2^t - 1 at the
    root).  B never holds a whole t-flat and a branch point p is never
    in B, so adding p closes a flat exactly when some flat through p
    has |F \\ B| = 1: one AND of the flats through p with the count-1
    plane, built once per node.  A child that passes its bound
    subtracts one from the counters of the flats through p, a t-step
    borrow chain.  The t-flats are listed up front, [r, t]_2 masks from
    gf2.subspace_masks, polling the deadline every _LIST_POLL flats.

    All three give the verdicts of the direct tests, which recount the
    uncovered subspaces, pack by scanning and ask gf2.subspace_in
    whether a t-flat closes, so the tree and the node count are theirs.

    The columns through[v], the flats through v and the root count
    planes are each the transpose of a list of masks (the count planes
    that of the subspace sizes), built by _transpose: one to_bytes per
    mask, then per column a strided slice of the packed bytes, a
    translation to ASCII digits and int(s, 2), linear and in C.  The
    deadline, which covers this setup, is polled every _LIST_POLL masks
    read, after each column and at every node: a node's cost grows with
    the family, so a fixed count of nodes between polls would not bound
    the overrun.  The masks are checked in the order they are read, so
    a bad mask past a spent deadline is not reached, on either twin.

    symmetry=True breaks symmetry at every node and needs a subspace
    family closed under GL(r,2), such as all subspaces of some given
    dimensions.  At a node with blocker B, excluded points X and chosen
    subspace S, the node branches on each available point of
    S & span(B), ascending and excluding earlier siblings, and then
    once more on the lowest point of S outside span(B), with no further
    siblings.  Nothing is lost:
    - X lies in span(B), by induction: only points of span(B) are ever
      excluded, and span(B) only grows down the tree.
    - H, the pointwise stabiliser of span(B) in GL(r,2), fixes B and X,
      maps any point outside span(B) to any other, and preserves the
      family, the forbidden t-flats, the full-rank test and sizes.
    - So a valid blocker extending B that meets S only outside span(B)
      has an H-image, equally valid and as small, that contains the
      lowest such point and avoids X and S & span(B): the last branch
      finds it.
    For t >= 2 that last point never closes a forbidden flat: a t-flat
    inside B + {p} through p holds two points of B that sum to p, which
    would put p in span(B).  At the root span(B) = {0}, so the root
    takes a single branch.  symmetry=False branches on every available
    point of S.  The span is a bitset, grown by one translation when
    the last branch adds a point outside it.
    """
    _check_rank(r)
    if not 0 <= forbidden_dim <= r:
        raise ValueError(f"forbidden_dim must be in [0, {r}], got {forbidden_dim}")
    # the budget covers reading the family too
    deadline = monotonic() + budget if budget is not None else None
    n_all = 1 << r
    subs: List[int] = []
    through: List[int] = []  # the subspaces through v, one bit per subspace
    meets: dict = {}
    flats_through: List[int] = []  # the forbidden flats through v, one bit per flat

    best = -1
    best_mask = 0
    nodes = 0

    def poll() -> None:
        if deadline is not None and monotonic() > deadline:
            raise _Timeout

    def bound_exceeds(uncov: int, slack: int) -> bool:
        """max(ceil(u / maxcov), greedy packing of uncov) > slack."""
        if -(-uncov.bit_count() // maxcov) > slack:
            return True
        packed = 0
        cand = uncov
        while cand:
            packed += 1
            if packed > slack:
                return True
            i = (cand & -cand).bit_length() - 1
            mi = meets.get(i)
            if mi is None:
                mi = 1 << i
                for v in iter_bits(subs[i]):
                    mi |= through[v]
                if len(meets) < meets_room:
                    meets[i] = mi
            cand &= ~mi
        return False

    def dfs(b_mask, b_size, uncov, avail, counts, planes, pending, span):
        """pending: the forbidden flats through the point just added, not
        yet subtracted from planes; span: the span of b_mask, a bitset."""
        nonlocal best, best_mask, nodes
        nodes += 1
        poll()
        if uncov == 0:
            if full_rank:
                pts = nonzero_mask(r) & ~b_mask
                piv: dict = {}
                for v in iter_bits(pts):
                    echelon_insert(piv, v)
                if len(piv) != r:
                    return
            best = b_size
            best_mask = b_mask
            return
        window = max_blocker if best < 0 else min(max_blocker, best - 1)
        if bound_exceeds(uncov, window - b_size):
            return
        # fail-first: the lowest uncovered subspace with fewest available points
        cand = uncov
        for plane in reversed(counts):
            lo = cand & ~plane
            if lo:
                cand = lo
        sel = (cand & -cand).bit_length() - 1
        left = subs[sel] & avail
        if not left:
            return  # unhittable in this branch
        if pending:
            planes = _decrement(planes, pending)
        one_left = 0  # flats with |F \ B| = 1
        if planes:
            one_left = planes[0]
            for plane in planes[1:]:
                one_left &= ~plane
        last = 0  # one point outside span(B) stands for all of them
        if symmetry:
            outside = left & ~span
            last = outside & -outside
            left &= span
        while left or last:
            if left:
                low = left & -left
                left ^= low
                p = low.bit_length() - 1
                span2 = span
            else:
                low, last = last, 0
                p = low.bit_length() - 1
                span2 = span | translate_mask(span, p, r)
            closes = flats_through[p]
            if not closes & one_left:  # else p would close a forbidden flat
                dfs(
                    b_mask | low,
                    b_size + 1,
                    uncov & ~through[p],
                    avail,
                    counts,
                    planes,
                    closes,
                    span2,
                )
            if left or last:
                avail ^= low
                counts = _decrement(counts, through[p])

    completed = True
    try:
        for m in _polled(subspace_masks, poll):
            _check_mask(m, r)
            subs.append(m & ~1)
        through = _transpose(subs, n_all, poll)
        meets_room = _MEETS_MAX_WORDS // max(1, -(-len(subs) // 64))
        maxcov = max(t.bit_count() for t in through) or 1
        # |S_i & avail| at the root, as bit-planes over the subspace indices
        sizes = [m.bit_count() for m in subs]
        n_planes = max(sizes, default=0).bit_length()
        root_counts = _transpose(sizes, n_planes, poll)
        n_flats = gaussian_binomial(r, forbidden_dim) if forbidden_dim else 0
        flats = _polled(flat_masks(r, forbidden_dim), poll) if forbidden_dim else ()
        flats_through = _transpose(flats, n_all, poll)
        root_planes = [(1 << n_flats) - 1] * forbidden_dim
        uncov = (1 << len(subs)) - 1
        dfs(0, 0, uncov, nonzero_mask(r), root_counts, root_planes, 0, 1)
    except _Timeout:
        completed = False
    return best, best_mask, nodes, completed
