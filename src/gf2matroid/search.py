"""Exhaustive and branch-and-bound search for extremal point sets.

Two engines: max_size grows point sets directly (include-first DFS in
decreasing encoding order), max_size_complement enumerates minimal
blockers B and reports PG(r-1,2) minus B; max_size picks the engine
itself (see there).  Both prove optimality when they complete within
budget; otherwise the report carries the best bound found and
exhaustive=False.

Symmetry breaking: the direct engine keeps only sets containing one
fixed basis, which loses no optimum because some largest valid set has
full rank and GL(r,2) is transitive on ordered bases (max_size gives
the argument).  The complement engine does the same when it blocks
lines (odd girth 5, or freeness of order 2): the forced basis is
cleared from every line, so no blocker takes a basis point, and the
kernel runs without its per-node rule, which needs every excluded
point inside span(B) and would not hold with the basis kept out.  For
flats of dimension n >= 3 it breaks symmetry at every node instead.
There a node with blocker B branches on the points of its chosen
subspace inside span(B), then on a single point outside it: the
pointwise stabiliser of span(B) in GL(r,2) fixes B and every point
excluded so far, and moves any point outside span(B) to any other, so
that one branch stands for all of them (max_size_complement and the
kernels' complement_search give both arguments).  Reported witnesses
are the canonical first find, for every threads value.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from itertools import islice
from time import monotonic
from typing import Dict, List, Optional, Sequence, Tuple

from ._backend import kernels, load_kernels
from .constructions import bose_burton, extremal_gs, extremal_odd_girth
from .gf2 import (
    enumerate_subspaces,  # unused; perfbench/tracing.py wraps it under this name
    gaussian_binomial,
    nonzero_mask,
    subspace_masks,
)
from .matroid import (
    BinaryMatroid,
    critical_number,
    has_pg_restriction,
    is_affine,
    odd_girth,
)

__all__ = [
    "ConstraintSet",
    "SearchReport",
    "VerifyReport",
    "max_size",
    "max_size_complement",
    "verify_theorem",
]

# each theorem's parameters, exactly
_THEOREM_PARAMS = {"main": ("k", "r"), "bose_burton": ("n", "r"), "gs": ("n", "r")}
THEOREMS = tuple(_THEOREM_PARAMS)

_LIST_POLL = 256  # subspaces listed between deadline polls
# The most flats max_size hands to the complement engine, in the family to
# hit or the forbidden flats; it bounds the kernels' per-point columns.
_FAMILY_MAX = 1 << 18


def __getattr__(name: str):
    # The process pool costs every CLI start its import, so it loads on
    # first use.  _run_forward reads it as a module attribute, which
    # lets a caller patch search.ProcessPoolExecutor.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ConstraintSet:
    """What a searched point set must satisfy.

    min_odd_girth and pg_free_order restrict every subset and gate the
    search tree; forbid_affine, min_critical and full_rank only hold at
    maximal candidates and are checked there.
    """

    min_odd_girth: Optional[int] = None
    forbid_affine: bool = False
    min_critical: Optional[int] = None
    pg_free_order: Optional[int] = None
    full_rank: bool = False

    def validate(self, r: int) -> None:
        if (
            self.min_odd_girth is None
            and not self.forbid_affine
            and self.min_critical is None
            and self.pg_free_order is None
            and not self.full_rank
        ):
            raise ValueError("empty constraint set")
        g = self.min_odd_girth
        if g is not None and (g < 3 or g % 2 == 0):
            raise ValueError(f"minimum odd girth must be odd and >= 3, got {g}")
        c = self.min_critical
        if c is not None and not 1 <= c <= r:
            raise ValueError(f"minimum critical number must be in [1, {r}], got {c}")
        n = self.pg_free_order
        if n is not None and not 1 <= n <= r:
            raise ValueError(f"flat-freeness order must be in [1, {r}], got {n}")

    def normalized(self) -> Tuple[int, int, int, bool]:
        """(girth, pg_order, min_critical, full_rank) with overlaps folded.

        Freeness of order 2 is the same constraint as odd girth >= 5, and
        odd girth >= 5 implies freeness of every order n >= 2: a rank-n
        flat with n >= 2 holds a line, which is a 3-circuit.
        forbid_affine is critical number >= 2; girth 3 is vacuous.
        """
        g = self.min_odd_girth or 0
        pg_n = self.pg_free_order or 0
        if pg_n == 2:
            g = max(g, 5)
        if g >= 5 and pg_n >= 2:
            pg_n = 0
        if g == 3:
            g = 0
        c = max(self.min_critical or 0, 2 if self.forbid_affine else 0)
        return g, pg_n, c, self.full_rank

    def satisfied_by(self, m: BinaryMatroid) -> bool:
        """Re-verify through the matroid-level oracles.

        Freeness of order n is certified by the critical number cn when
        cn < n, and searched for with has_pg_restriction only when
        cn >= n.  Suppose cocycles f_1..f_c, c < n, cover m and U is an
        n-dimensional subspace whose nonzero vectors lie in m.  The f_i
        restricted to U have a common kernel of dimension >= n - c >= 1,
        so some point of U is uncovered: a contradiction.
        critical_number re-checks its cover with CocycleCover.covers
        before it returns, so cn is the size of a verified cover and
        the true critical number is at most cn; a finder that missed a
        subspace could only raise cn and make the certificate fire less
        often.  The verdict thus rests on that independent cover check,
        not on gf2.subspace_in.  Every Bose-Burton extremal set has
        cn = n - 1, so its witnesses never reach the flat search.
        """
        if self.min_odd_girth is not None and odd_girth(m) < self.min_odd_girth:
            return False
        if self.forbid_affine and is_affine(m):
            return False
        n = self.pg_free_order
        if self.min_critical is not None or n is not None:
            cn = critical_number(m)[0]
            if self.min_critical is not None and cn < self.min_critical:
                return False
            # cn <= rank <= ambient rank, so an order beyond the ambient
            # rank is always certified
            if n is not None and cn >= n and has_pg_restriction(m, n):
                return False
        if self.full_rank and not m.is_full_rank:
            return False
        return True

    def to_json_dict(self) -> Dict:
        return asdict(self)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search run.

    optimum is exact when exhaustive is true, a lower bound when a
    witness was found before the budget ran out, and None when nothing
    conclusive was established.  An exhaustive search that finds no
    valid set, not even the empty one, reports optimum 0 and witness
    None; an empty largest set comes with an empty witness.
    """

    rank: int
    constraints: ConstraintSet
    method: str
    optimum: Optional[int]
    witness: Optional[BinaryMatroid]
    nodes: int
    wall_time: float
    exhaustive: bool
    threads: int = 1

    def to_json_dict(self) -> Dict:
        witness = None
        if self.witness is not None:
            witness = {
                "rank": self.witness.ambient_rank,
                "points": [
                    format(v, f"0{self.witness.ambient_rank}b")
                    for v in self.witness.point_list()
                ],
            }
        return {
            "report": "search",
            "rank": self.rank,
            "constraints": self.constraints.to_json_dict(),
            "method": self.method,
            "optimum": self.optimum,
            "witness": witness,
            "nodes_explored": self.nodes,
            "wall_time": self.wall_time,
            "exhaustive": self.exhaustive,
            "threads": self.threads,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Search outcome against a closed-form bound plus its construction."""

    theorem: str
    params: Dict[str, int]
    bound: int
    optimum: Optional[int]
    construction_size: int
    construction_ok: bool
    passed: bool
    inconclusive: bool
    nodes: int
    wall_time: float

    def to_json_dict(self) -> Dict:
        return {
            "report": "verify",
            "theorem": self.theorem,
            "params": dict(self.params),
            "bound": self.bound,
            "optimum": self.optimum,
            "construction_size": self.construction_size,
            "construction_ok": self.construction_ok,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "nodes_explored": self.nodes,
            "wall_time": self.wall_time,
        }


def _check_budget(budget: Optional[float]) -> None:
    if budget is not None and not budget >= 0:  # NaN fails every comparison
        raise ValueError(f"budget must be >= 0 seconds, got {budget}")


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _check_kernel_rank(r: int) -> None:
    """The kernels' own rank check, made before any family is listed."""
    limit = kernels.KERNEL_RANK_MAX
    if not 1 <= r <= limit:
        raise ValueError(f"kernel rank must be in [1, {limit}], got {r}")


def _report(
    r: int,
    constraints: ConstraintSet,
    method: str,
    best: int,
    mask: int,
    nodes: int,
    exhaustive: bool,
    t0: float,
    threads: int = 1,
) -> SearchReport:
    """The report of a search started at t0 that found the set mask of
    best points, or none when best < 0; the oracles re-verify the
    witness after the wall time is read."""
    wall = monotonic() - t0
    if best < 0:
        optimum, witness = (0 if exhaustive else None), None
    else:
        optimum, witness = best, BinaryMatroid(r, mask)
        if witness.size != best or not constraints.satisfied_by(witness):
            raise RuntimeError("search witness failed re-verification")
    return SearchReport(
        rank=r,
        constraints=constraints,
        method=method,
        optimum=optimum,
        witness=witness,
        nodes=nodes,
        wall_time=wall,
        exhaustive=exhaustive,
        threads=threads,
    )


def _forward_task(args) -> Tuple[int, int, int, bool]:
    (backend, r, g, pg_n, c, full, forced_in, forced_out, deadline, prune) = args
    mod = load_kernels(backend)
    # monotonic() is system-wide, so the parent's deadline holds here too
    budget = None if deadline is None else max(0.0, deadline - monotonic())
    return mod.forward_search(
        r, g, pg_n, c, full, forced_in, forced_out, budget, prune
    )


def _run_forward(
    r: int,
    norm: Tuple[int, int, int, bool],
    forced_in: Sequence[int],
    budget: Optional[float],
    threads: int,
    prune: bool,
) -> Tuple[int, int, int, bool, int]:
    """The forward kernel's (best, mask, nodes, completed), and the number
    of processes it ran in.

    The tree is cut into 2^k parts, k = min(floor(log2(threads)), 6,
    free points), one process each under one absolute deadline: part 0
    runs in the calling process and the other 2^k - 1 in a pool of as
    many workers; a single part runs inline.  Part p fixes the top k
    free points split[0..k-1], leaving out split[i] exactly when bit
    k-1-i of p is set, so the parts come in the order the serial
    include-first DFS visits them.  The pool forks every worker when the
    parts are submitted, before its manager thread starts, and that
    thread feeds them while the caller searches; the compiled kernel
    releases the GIL for it.

    The merge keeps the first part to reach the largest size, so a
    completed run returns the serial optimum and witness.  Within a part
    the DFS visits sets in serial order, and a prune cuts a branch only
    when its bound is at most best.  So until the part's best reaches the
    optimum, no prune cuts an optimum-size set, and the part accepts the
    same first optimum-size set of its region as the serial search, whose
    best is below the optimum there too.  An earlier part that held such
    a set would have reached the optimum itself.
    """
    g, pg_n, c, full = norm
    taken = set(forced_in)
    free = (v for v in range((1 << r) - 1, 0, -1) if v not in taken)
    split = list(islice(free, min(threads.bit_length() - 1, 6)))
    k = len(split)
    if k == 0:
        found = kernels.forward_search(
            r, g, pg_n, c, full, tuple(forced_in), 0, budget, prune
        )
        return (*found, 1)
    deadline = None if budget is None else monotonic() + budget
    head = (kernels.BACKEND_NAME, r, g, pg_n, c, full)
    parts = []
    for p in range(1 << k):
        out = [v for i, v in enumerate(split) if p >> (k - 1 - i) & 1]
        inc = tuple(v for v in split if v not in out)
        tail = (tuple(forced_in) + inc, sum(1 << v for v in out), deadline, prune)
        parts.append(head + tail)
    best, best_mask, nodes, completed = -1, 0, 0, True
    # a module attribute, so that __getattr__ imports it on first use
    executor = sys.modules[__name__].ProcessPoolExecutor
    with executor(max_workers=len(parts) - 1) as pool:
        rest = pool.map(_forward_task, parts[1:])
        results = [_forward_task(parts[0]), *rest]
    for b, mask, n, done in results:
        nodes += n
        completed = completed and done
        if b > best:
            best, best_mask = b, mask
    return best, best_mask, nodes, completed, len(parts)


def _subspace_masks(r: int, d: int, deadline: Optional[float]) -> Optional[List[int]]:
    """Point masks of every d-dimensional subspace, in gf2.subspace_masks
    order, or None once the deadline passes; polled every _LIST_POLL masks."""
    masks: List[int] = []
    listing = subspace_masks(r, d)
    while True:
        n = len(masks)
        masks.extend(islice(listing, _LIST_POLL))
        if len(masks) - n < _LIST_POLL:
            return masks
        if deadline is not None and monotonic() > deadline:
            return None


def _forced_basis(r: int) -> Tuple[int, ...]:
    """All-ones and all-ones XOR e_i (i < r-1): a basis of GF(2)^r, largest first."""
    top = (1 << r) - 1
    return (top,) + tuple(top ^ (1 << i) for i in range(r - 1))


def max_size(
    r: int,
    constraints: ConstraintSet,
    budget: Optional[float] = None,
    threads: int = 1,
    symmetry_break: bool = True,
    prune: bool = True,
) -> SearchReport:
    """Largest point set in GF(2)^r meeting the constraints.

    With symmetry_break the search keeps only sets that contain one
    fixed basis.  Nothing is lost: adding a point outside the span of a
    valid set keeps it valid (the new point lies on no circuit and in no
    flat of rank >= 2, and the critical number can only grow), so some
    largest valid set has full rank; every constraint is
    GL(r,2)-invariant and GL(r,2) is transitive on ordered bases, so
    some image of that set contains the fixed basis.  Freeness of
    order 1 admits no point at all and is searched unforced.

    With prune, max_size_complement runs instead, with the full window
    2^r - 1 and symmetry_break passed on, when the normalized demand
    keeps freeness of some order n >= 3, or has odd girth 5, a critical
    demand c other than 2 and no order-1 freeness (lines to hit, n = 2);
    the report says method "complement" and threads 1.  It wins all of
    these as measured: pg-free 3 at r=6 takes 12,735 nodes against over
    4.3M forward, odd girth 5 with c >= 3 at r=6 takes 498 against
    9,245,881.  c = 2 runs forward, though the complement engine
    finishes it at r=7 (gs n=2, the paper's k=5 case): 142,728,496
    nodes (34.8 s compiled) with the full window, 22,392,602 (6 s) with
    verify's window 87; the forward engine does not finish in 30 s.
    The n-flats to hit and, for c >= 2, the forbidden (r-c+1)-flats
    must each number at most _FAMILY_MAX, to bound the kernels' tables;
    larger demands run forward.  prune=False always runs the literal
    forward search.

    threads >= 2 splits the forward search over that many processes,
    rounded down to a power of two and at most 64: the calling process
    and one fewer pool workers.  It returns the single-process optimum
    and witness; report.threads counts the processes, the caller too.
    threads below 1 raise ValueError.
    """
    t0 = monotonic()
    constraints.validate(r)
    _check_budget(budget)
    _check_threads(threads)
    _check_kernel_rank(r)
    norm = constraints.normalized()
    g, pg_n, c, _ = norm
    n = 2 if g == 5 and pg_n == 0 and c != 2 else pg_n
    if prune and n >= 2:
        t = r - c + 1 if c >= 2 else 0
        if max(gaussian_binomial(r, n), gaussian_binomial(r, t)) <= _FAMILY_MAX:
            window = (1 << r) - 1
            return max_size_complement(r, constraints, window, budget, symmetry_break)
    forced = _forced_basis(r) if symmetry_break and pg_n != 1 else ()
    best, best_mask, nodes, completed, procs = _run_forward(
        r, norm, forced, budget, threads, prune
    )
    return _report(
        r, constraints, "forward", best, best_mask, nodes, completed, t0, procs
    )


def max_size_complement(
    r: int,
    constraints: ConstraintSet,
    max_blocker: int,
    budget: Optional[float] = None,
    symmetry_break: bool = True,
) -> SearchReport:
    """Same optimum as max_size, found by removing a minimal blocker.

    Needs a hereditary constraint expressible as flat blocking, i.e.
    pg_free_order (or odd girth 5, which equals order-2 freeness).
    Critical-number demands become a forbidden flat inside the blocker.
    When a window shorter than 2^r - 1 admits no blocker, the result is
    inconclusive: optimum None, exhaustive False.  With the full window
    a completed search that finds no blocker proves that no set is
    valid, and reports it as max_size does: optimum 0, no witness.

    With symmetry_break and lines to block (n = 2), the points of
    _forced_basis(r) are cleared from every line, so every blocker
    avoids them and every reported set contains them.  A line holds at
    most two of them, since a basis has no 3-circuit, so no line is
    left empty.  Nothing is lost, by the argument of max_size: some
    largest valid set has full rank, and GL(r,2) is transitive on
    ordered bases, so some image of it contains the basis; its
    complement is a smallest valid blocker that avoids the basis.
    These runs switch the kernel's per-node rule off: that rule
    assumes every excluded point lies in span(B), and the basis points
    are kept out from the root on, where span(B) = {0}.

    With symmetry_break and n >= 3, each node of the blocker search
    with blocker B branches on the points of its chosen subspace S
    inside span(B), excluding earlier siblings, and then on the lowest
    point of S outside span(B) alone.  Only points of span(B) are ever
    excluded, and the pointwise stabiliser of span(B) in GL(r,2) fixes
    B and the excluded points, maps any point outside span(B) to any
    other, and preserves the family of all n-flats, the forbidden
    flats, the rank of the complement and sizes.  So a smallest blocker
    meeting S only outside span(B) has an image, just as small and
    valid, in that last branch, and the optimum is kept.  The rule
    needs a subspace family closed under GL(r,2), as the family of all
    n-flats is.  Forcing the basis instead is sound there too, but it
    grew every such tree measured (gs n=3 r=5 from 838 to 18,374
    nodes, bose_burton n=4 r=6 from 34 to 96,672), while it shrank
    every line tree (gs n=2 r=5 from 18,748 to 68).

    Freeness of order 1 is refused by name, whatever the girth: it
    admits only the empty set, which max_size finds at once, and a
    forced basis could never lie in it.
    """
    t0 = monotonic()
    constraints.validate(r)
    _check_budget(budget)
    _check_kernel_rank(r)
    g, pg_n, c, full = constraints.normalized()
    if pg_n == 1:
        raise ValueError("complement search does not support flat-freeness of order 1")
    if g >= 7:
        raise ValueError("complement search supports odd girth demands only up to 5")
    if g == 5:
        n_eff = 2  # hitting every line also hits every larger flat
    elif pg_n >= 2:
        n_eff = pg_n
    else:
        raise ValueError("complement search needs a flat-freeness constraint")
    if max_blocker < 0:
        raise ValueError("max_blocker must be nonnegative")
    if c > r:  # forbid_affine at rank 1: no set is valid, no flat to forbid
        return _report(r, constraints, "complement", -1, 0, 0, True, t0)
    # one deadline covers listing the hitting family and the search
    deadline = None if budget is None else t0 + budget
    subspaces = _subspace_masks(r, n_eff, deadline)
    t_forbidden = r - c + 1 if c >= 2 else 0
    force_basis = symmetry_break and n_eff == 2
    if subspaces is None:
        best, b_mask, nodes, completed = -1, 0, 0, False
    else:
        if force_basis:
            keep = sum(1 << v for v in _forced_basis(r))
            subspaces = [s & ~keep for s in subspaces]
        left = None if deadline is None else max(0.0, deadline - monotonic())
        best, b_mask, nodes, completed = kernels.complement_search(
            r,
            subspaces,
            t_forbidden,
            full,
            max_blocker,
            left,
            symmetry_break and not force_basis,
        )
    # with no blocker found, the search proves that no set is valid only
    # if its window admitted every blocker, all 2^r - 1 points included
    exhaustive = completed and (best >= 0 or max_blocker >= (1 << r) - 1)
    size = (1 << r) - 1 - best if best >= 0 else -1
    kept = nonzero_mask(r) & ~b_mask
    return _report(r, constraints, "complement", size, kept, nodes, exhaustive, t0)


def verify_theorem(
    theorem: str,
    params: Dict[str, int],
    budget: Optional[float] = None,
    threads: int = 1,
) -> VerifyReport:
    """Check a closed-form extremal bound by exhaustive search at one size.

    main:        largest non-affine set with odd girth >= k is k*2^(r-k+1)
    bose_burton: largest set with no full rank-n flat is (1 - 1/2^(n-1))*2^r
    gs:          largest such set with critical number >= n is
                 (1 - 11/2^(n+2))*2^r
    Each check also rebuilds the matching construction and confirms it
    attains the bound.  threads splits the forward search of main over
    processes as max_size does, with the single-process answer;
    bose_burton and gs run the complement engine in one process and
    raise ValueError unless threads is 1.  threads below 1
    raise ValueError for every theorem, and so do params that lack one
    of the theorem's keys or hold another.
    """
    t0 = monotonic()
    _check_threads(threads)
    if theorem not in _THEOREM_PARAMS:
        raise ValueError(f"unknown theorem {theorem!r}; known: {', '.join(THEOREMS)}")
    want = _THEOREM_PARAMS[theorem]
    for key in want:
        if key not in params:
            raise ValueError(f"theorem {theorem!r} needs parameter {key!r}")
    for key in params:
        if key not in want:
            raise ValueError(f"theorem {theorem!r} takes no parameter {key!r}")
    if theorem in ("bose_burton", "gs") and threads != 1:
        raise ValueError(f"threads apply to theorem 'main' only, not {theorem!r}")
    if theorem == "main":
        k, r = params["k"], params["r"]
        construction = extremal_odd_girth(k, r)  # validates k and r
        bound = k << (r - k + 1)
        cs = ConstraintSet(min_odd_girth=k, forbid_affine=True)
        rep = max_size(r, cs, budget=budget, threads=threads)
        c_ok = (
            construction.size == bound
            and odd_girth(construction) == k
            and cs.satisfied_by(construction)
        )
    elif theorem == "bose_burton":
        n, r = params["n"], params["r"]
        if not 2 <= n <= r:
            raise ValueError(f"flat order must be in [2, {r}], got {n}")
        bound = (1 << r) - (1 << (r - n + 1))
        cs = ConstraintSet(pg_free_order=n)
        rep = max_size_complement(r, cs, (1 << (r - n + 1)) - 1, budget=budget)
        construction = bose_burton(r, n - 1)
        c_ok = construction.size == bound and cs.satisfied_by(construction)
    else:
        n, r = params["n"], params["r"]
        construction = extremal_gs(n, r)  # validates n and r
        bound = (1 << r) - 11 * (1 << (r - n - 2))
        cs = ConstraintSet(pg_free_order=n, min_critical=n)
        rep = max_size_complement(r, cs, 11 * (1 << (r - n - 2)) - 1, budget=budget)
        c_ok = (
            construction.size == bound
            and critical_number(construction)[0] == n
            and cs.satisfied_by(construction)
        )
    passed = rep.exhaustive and rep.optimum == bound and c_ok
    return VerifyReport(
        theorem=theorem,
        params=dict(params),
        bound=bound,
        optimum=rep.optimum,
        construction_size=construction.size,
        construction_ok=c_ok,
        passed=passed,
        inconclusive=not rep.exhaustive,
        nodes=rep.nodes,
        wall_time=monotonic() - t0,
    )
