"""Exhaustive and branch-and-bound search for extremal point sets.

Two engines: max_size grows point sets directly (include-first DFS in
decreasing encoding order), max_size_complement enumerates minimal
blockers B and reports PG(r-1,2) minus B.  Both prove optimality when
they complete within budget; otherwise the report carries the best
bound found and exhaustive=False.

Symmetry breaking: the direct engine keeps only sets containing one
fixed basis, which loses no optimum because some largest valid set has
full rank and GL(r,2) is transitive on ordered bases (max_size gives
the argument); the complement engine keeps only one root branch (a
flat's stabilizer is transitive on its points).  Reported witnesses are
the canonical first find.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import monotonic
from typing import Dict, Optional, Sequence, Tuple

from ._backend import kernels, load_kernels
from .constructions import bose_burton, extremal_gs, extremal_odd_girth
from .gf2 import enumerate_subspaces, nonzero_mask
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

THEOREMS = ("main", "bose_burton", "gs")


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

        Freeness of order 2 is the same constraint as odd girth >= 5;
        forbid_affine is critical number >= 2; girth 3 is vacuous.
        """
        g = self.min_odd_girth or 0
        pg_n = self.pg_free_order or 0
        if pg_n == 2:
            g = max(g, 5)
            pg_n = 0
        if g == 3:
            g = 0
        c = max(self.min_critical or 0, 2 if self.forbid_affine else 0)
        return g, pg_n, c, self.full_rank

    def satisfied_by(self, m: BinaryMatroid) -> bool:
        """Re-verify through the matroid-level oracles.

        Kernel-independent on the compiled backend.  The pure kernels
        share gf2.subspace_in; the BFS odd girth, the cover re-check,
        the C twin and the tests' brute-force enumerations do not.
        """
        if self.min_odd_girth is not None and odd_girth(m) < self.min_odd_girth:
            return False
        if self.forbid_affine and is_affine(m):
            return False
        if self.min_critical is not None and critical_number(m)[0] < self.min_critical:
            return False
        if self.pg_free_order is not None and self.pg_free_order <= m.ambient_rank:
            if has_pg_restriction(m, self.pg_free_order):
                return False
        if self.full_rank and not m.is_full_rank:
            return False
        return True

    def to_json_dict(self) -> Dict:
        return {
            "min_odd_girth": self.min_odd_girth,
            "forbid_affine": self.forbid_affine,
            "min_critical": self.min_critical,
            "pg_free_order": self.pg_free_order,
            "full_rank": self.full_rank,
        }


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search run.

    optimum is exact when exhaustive is true, a lower bound when a
    witness was found before the budget ran out, and None when nothing
    conclusive was established.
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


def _mask_lex_less(a: int, b: int) -> bool:
    """Ascending point lists of equal length: a before b?"""
    d = a ^ b
    if d == 0:
        return False
    return bool(a & (d & -d))


def _check_budget(budget: Optional[float]) -> None:
    if budget is not None and not budget >= 0:  # NaN fails every comparison
        raise ValueError(f"budget must be >= 0 seconds, got {budget}")


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
) -> Tuple[int, int, int, bool]:
    g, pg_n, c, full = norm
    if threads <= 1:
        return kernels.forward_search(
            r, g, pg_n, c, full, tuple(forced_in), 0, budget, prune
        )
    # split the top of the tree into 2^k independent subproblems that
    # share one absolute deadline
    deadline = None if budget is None else monotonic() + budget
    avail = [v for v in range((1 << r) - 1, 0, -1) if v not in set(forced_in)]
    k = max(1, math.ceil(math.log2(2 * threads)))
    k = min(k, 6, len(avail))
    split = avail[:k]
    tasks = []
    for pattern in range(1 << k):
        inc = [split[i] for i in range(k) if (pattern >> i) & 1]
        out = 0
        for i in range(k):
            if not (pattern >> i) & 1:
                out |= 1 << split[i]
        tasks.append(
            (
                kernels.BACKEND_NAME,
                r,
                g,
                pg_n,
                c,
                full,
                tuple(forced_in) + tuple(inc),
                out,
                deadline,
                prune,
            )
        )
    best, best_mask, nodes, completed = -1, 0, 0, True
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        for b, mask, n, done in pool.map(_forward_task, tasks):
            nodes += n
            completed = completed and done
            if b > best or (b == best >= 0 and _mask_lex_less(mask, best_mask)):
                best, best_mask = b, mask
    return best, best_mask, nodes, completed


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
    """
    t0 = monotonic()
    constraints.validate(r)
    _check_budget(budget)
    norm = constraints.normalized()
    forced = _forced_basis(r) if symmetry_break and norm[1] != 1 else ()
    best, best_mask, nodes, completed = _run_forward(
        r, norm, forced, budget, threads, prune
    )
    wall = monotonic() - t0
    if best < 0:
        return SearchReport(
            rank=r,
            constraints=constraints,
            method="forward",
            optimum=0 if completed else None,
            witness=None,
            nodes=nodes,
            wall_time=wall,
            exhaustive=completed,
            threads=threads,
        )
    witness = BinaryMatroid(r, best_mask)
    if witness.size != best or not constraints.satisfied_by(witness):
        raise RuntimeError("search witness failed re-verification")
    return SearchReport(
        rank=r,
        constraints=constraints,
        method="forward",
        optimum=best,
        witness=witness,
        nodes=nodes,
        wall_time=wall,
        exhaustive=completed,
        threads=threads,
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
    When no blocker of size <= max_blocker exists the result is
    inconclusive: optimum None, exhaustive False.
    """
    t0 = monotonic()
    constraints.validate(r)
    _check_budget(budget)
    g, pg_n, c, full = constraints.normalized()
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
    subspaces = [s.point_mask() for s in enumerate_subspaces(r, n_eff)]
    t_forbidden = r - c + 1 if c >= 2 else 0
    best, b_mask, nodes, completed = kernels.complement_search(
        r, subspaces, t_forbidden, full, max_blocker, budget, symmetry_break
    )
    wall = monotonic() - t0
    if best < 0:
        return SearchReport(
            rank=r,
            constraints=constraints,
            method="complement",
            optimum=None,
            witness=None,
            nodes=nodes,
            wall_time=wall,
            exhaustive=False,
            threads=1,
        )
    witness = BinaryMatroid(r, nonzero_mask(r) & ~b_mask)
    if witness.size != (1 << r) - 1 - best or not constraints.satisfied_by(witness):
        raise RuntimeError("search witness failed re-verification")
    return SearchReport(
        rank=r,
        constraints=constraints,
        method="complement",
        optimum=witness.size,
        witness=witness,
        nodes=nodes,
        wall_time=wall,
        exhaustive=completed,
        threads=1,
    )


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
    attains the bound.
    """
    t0 = monotonic()
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
    elif theorem == "gs":
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
    else:
        raise ValueError(f"unknown theorem {theorem!r}; known: {', '.join(THEOREMS)}")
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
