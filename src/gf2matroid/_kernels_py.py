"""Pure-Python search kernels.

Same call contracts as the compiled module gf2matroid._kernels; the
backend is picked in gf2matroid._backend at import time.  Traversal
order, pruning rules and node counting are identical in both, so the
two backends return bit-identical results.

All point sets are int bitsets over the 2^r vector encodings (bit v
set iff vector v present).
"""

from __future__ import annotations

import sys
from time import monotonic
from typing import List, Optional, Sequence, Tuple

from .gf2 import hyperplane_complement, iter_bits, nonzero_mask, translate_mask

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


class _Timeout(Exception):
    pass


def _check_rank(r: int) -> None:
    if not 1 <= r <= KERNEL_RANK_MAX:
        raise ValueError(f"kernel rank must be in [1, {KERNEL_RANK_MAX}], got {r}")


def _check_mask(mask: int, r: int) -> None:
    if mask < 0 or mask >> (1 << r):
        raise ValueError(f"mask has bits outside the 2^{r} vectors of GF(2)^{r}")


def has_subspace_mask(mask: int, d: int, r: int) -> bool:
    """True iff some d-dimensional subspace has all nonzero vectors in mask."""
    _check_rank(r)
    _check_mask(mask, r)
    return _subspace_in(mask, d, r)


def _subspace_in(mask: int, d: int, r: int) -> bool:
    """Unchecked body of has_subspace_mask, for the search loops."""
    if d <= 0:
        return True
    if mask.bit_count() < (1 << d) - 1:
        return False
    if d == 1:
        return mask != 0
    for v in iter_bits(mask):
        # v plays the least element of the subspace; the rest must pair up
        rest = mask & translate_mask(mask, v, r) & ~((1 << (v + 1)) - 1)
        if _subspace_in(rest, d - 1, r):
            return True
    return False


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
    whenever the current set would improve the best.  Returns
    (best_size or -1, witness_mask, nodes, completed).
    """
    _check_rank(r)
    n_all = 1 << r
    for v in forced_in:
        if not 0 < v < n_all:
            raise ValueError(f"forced_in vector outside [1, 2^{r})")
    _check_mask(forced_out_mask, r)
    deadline = monotonic() + budget if budget is not None else None
    # functionals hitting v, as a bitset over f; dot is symmetric
    hit = [0] * n_all
    for v in range(1, n_all):
        hit[v] = hyperplane_complement(v, r)
    T = min_odd_girth - 3 if min_odd_girth >= 5 else 0
    pg_n = pg_free_order

    best = -1
    best_mask = 0
    nodes = 0

    def feasible(v: int, chosen: int, sums: List[int]) -> bool:
        t = 2
        while t <= T:
            if (sums[t] >> v) & 1:
                return False
            t += 2
        if pg_n == 1:
            return False
        if pg_n >= 3:
            rest = chosen & translate_mask(chosen, v, r)
            if _subspace_in(rest, pg_n - 1, r):
                return False
        return True

    def passes_extra(chosen: int, covers: int, rank: int) -> bool:
        if min_critical >= 2 and covers != 0:
            return False
        if min_critical >= 3:
            free = nonzero_mask(r) & ~chosen
            if _subspace_in(free, r - min_critical + 1, r):
                return False
        if full_rank and rank != r:
            return False
        return True

    def include(v, chosen, sums, covers, pivots):
        chosen |= 1 << v
        sums = list(sums)
        for t in range(T, 1, -1):
            sums[t] |= translate_mask(sums[t - 1], v, r)
        if T >= 1:
            sums[1] |= 1 << v
        covers &= hit[v]
        pivots = dict(pivots)
        w = v
        while w:
            p = w.bit_length() - 1
            if p not in pivots:
                pivots[p] = w
                break
            w ^= pivots[p]
        return chosen, sums, covers, pivots

    def dfs(feas, chosen, size, sums, covers, pivots):
        nonlocal best, best_mask, nodes
        nodes += 1
        if deadline is not None and nodes % _CHECK_INTERVAL == 0:
            if monotonic() > deadline:
                raise _Timeout
        if size > best and passes_extra(chosen, covers, len(pivots)):
            best = size
            best_mask = chosen
        if not feas:
            return
        if prune and size + len(feas) <= best:
            return
        if prune and min_critical >= 2:
            reach = covers
            for w in feas:
                reach &= hit[w]
            if reach:
                return  # every completion stays affine
        v = feas[0]
        c2, s2, cov2, piv2 = include(v, chosen, sums, covers, pivots)
        dfs([w for w in feas[1:] if feasible(w, c2, s2)], c2, size + 1, s2, cov2, piv2)
        dfs(feas[1:], chosen, size, sums, covers, pivots)

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n_all + 100))
    chosen = 0
    sums = [0] * (T + 1)
    if T >= 0:
        sums[0] = 1  # the empty subset sums to zero
    covers = nonzero_mask(r)
    pivots: dict = {}
    size = 0
    completed = True
    dead = False
    for v in forced_in:
        if not feasible(v, chosen, sums):
            dead = True
            break
        chosen, sums, covers, pivots = include(v, chosen, sums, covers, pivots)
        size += 1
    if not dead:
        feas = [
            v
            for v in range(n_all - 1, 0, -1)
            if not (chosen >> v) & 1
            and not (forced_out_mask >> v) & 1
            and feasible(v, chosen, sums)
        ]
        try:
            dfs(feas, chosen, size, sums, covers, pivots)
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
    is rejected as soon as it closes.  Returns (best_size or -1,
    blocker_mask, nodes, completed).
    """
    _check_rank(r)
    for m in subspace_masks:
        _check_mask(m, r)
    n_all = 1 << r
    deadline = monotonic() + budget if budget is not None else None
    n_subs = len(subspace_masks)
    through = [0] * n_all
    for i, m in enumerate(subspace_masks):
        for v in iter_bits(m):
            through[v] |= 1 << i
    maxcov = max((t.bit_count() for t in through), default=1) or 1

    best = -1
    best_mask = 0
    nodes = 0

    def lower_bound(uncov: int) -> int:
        u = uncov.bit_count()
        if u == 0:
            return 0
        bound = -(-u // maxcov)
        taken = 0
        packed = 0
        m = uncov
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if not (subspace_masks[i] & taken):
                taken |= subspace_masks[i]
                packed += 1
        return max(bound, packed)

    def closes_forbidden(b_mask: int, p: int) -> bool:
        rest = b_mask & translate_mask(b_mask, p, r)
        return _subspace_in(rest, forbidden_dim - 1, r)

    def dfs(b_mask, b_size, uncov, avail, at_root):
        nonlocal best, best_mask, nodes
        nodes += 1
        if deadline is not None and nodes % _CHECK_INTERVAL == 0:
            if monotonic() > deadline:
                raise _Timeout
        if uncov == 0:
            if full_rank:
                pts = nonzero_mask(r) & ~b_mask
                piv: dict = {}
                for v in iter_bits(pts):
                    while v:
                        p = v.bit_length() - 1
                        if p in piv:
                            v ^= piv[p]
                        else:
                            piv[p] = v
                            break
                if len(piv) != r:
                    return
            best = b_size
            best_mask = b_mask
            return
        window = max_blocker if best < 0 else min(max_blocker, best - 1)
        if b_size + lower_bound(uncov) > window:
            return
        # fail-first: uncovered subspace with fewest available points
        sel = -1
        sel_pts = 0
        sel_count = 1 << 30
        m = uncov
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            pts = subspace_masks[i] & avail
            c = pts.bit_count()
            if c == 0:
                return  # unhittable in this branch
            if c < sel_count:
                sel, sel_pts, sel_count = i, pts, c
        removed = 0
        for p in iter_bits(sel_pts):
            removed |= 1 << p
            if forbidden_dim and closes_forbidden(b_mask, p):
                continue
            dfs(
                b_mask | (1 << p),
                b_size + 1,
                uncov & ~through[p],
                avail & ~removed,
                False,
            )
            if at_root and symmetry:
                break  # remaining root branches are images under a flat stabilizer
    completed = True
    try:
        dfs(0, 0, (1 << n_subs) - 1, nonzero_mask(r), True)
    except _Timeout:
        completed = False
    return best, best_mask, nodes, completed
