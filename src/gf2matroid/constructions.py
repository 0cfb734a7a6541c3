"""Named point-set families and the lifting operations relating them.

Concrete coordinate choices are fixed so every builder is
deterministic: ag(r) is the affine slice with leading coordinate 1,
bose_burton(r, c) removes the flat spanned by the trailing r - c
coordinates, and conical_lift appends a trailing 0 bit before adjoining
the new unit vector as apex.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Tuple

from .gf2 import POINTSET_RANK_MAX, check_rank, hyperplane_complement, nonzero_mask
from .matroid import BinaryMatroid

__all__ = [
    "FAMILIES",
    "ag",
    "bose_burton",
    "build_family",
    "circuit",
    "conical_lift",
    "doubling",
    "extremal_gs",
    "extremal_odd_girth",
    "pg",
]


def pg(r: int) -> BinaryMatroid:
    """All 2^r - 1 points of the projective geometry PG(r-1,2)."""
    check_rank(r, POINTSET_RANK_MAX)
    return BinaryMatroid(r, nonzero_mask(r))


def ag(r: int) -> BinaryMatroid:
    """The 2^(r-1) points with leading coordinate 1: AG(r-1,2)."""
    check_rank(r, POINTSET_RANK_MAX)
    return BinaryMatroid(r, hyperplane_complement(1 << (r - 1), r))


def bose_burton(r: int, c: int) -> BinaryMatroid:
    """PG(r-1,2) minus a rank r - c flat; critical number exactly c."""
    check_rank(r, POINTSET_RANK_MAX)
    if not 1 <= c <= r:
        raise ValueError(f"critical parameter must be in [1, {r}], got {c}")
    flat = (1 << (1 << (r - c))) - 2  # nonzero vectors below 2^(r-c)
    return BinaryMatroid(r, nonzero_mask(r) ^ flat)


def circuit(k: int) -> BinaryMatroid:
    """The k-element circuit: unit vectors of GF(2)^(k-1) and their sum."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"circuit size must be odd and >= 3, got {k}")
    check_rank(k - 1, POINTSET_RANK_MAX)
    pts = [1 << i for i in range(k - 1)] + [(1 << (k - 1)) - 1]
    return BinaryMatroid.from_vectors(k - 1, pts)


def conical_lift(n: BinaryMatroid) -> Tuple[BinaryMatroid, int]:
    """Cone over a full-rank matroid: both parallel copies plus an apex.

    Embeds n into the hyperplane "trailing coordinate 0" and returns
    (lift, apex) where apex is the new trailing unit vector; every
    lifted point pairs with apex and its twin on a full line.
    """
    if not n.is_full_rank:
        raise ValueError("conical lift requires a full-rank matroid")
    r2 = n.ambient_rank + 1
    check_rank(r2, POINTSET_RANK_MAX)
    apex = 1
    mask = 1 << apex
    for v in n.point_list():
        mask |= 1 << (v << 1)
        mask |= 1 << ((v << 1) | 1)
    return BinaryMatroid(r2, mask), apex


def doubling(n: BinaryMatroid) -> BinaryMatroid:
    """The conical lift with the apex removed."""
    lifted, apex = conical_lift(n)
    return BinaryMatroid(lifted.ambient_rank, lifted.points & ~(1 << apex))


def extremal_odd_girth(k: int, r: int) -> BinaryMatroid:
    """Largest non-affine matroid with no odd circuit shorter than k.

    Repeated doubling of the k-circuit; size is k * 2^(r-k+1) and the
    odd girth stays exactly k.
    """
    if k < 5 or k % 2 == 0:
        raise ValueError(f"odd girth parameter must be odd and >= 5, got {k}")
    if r < k - 1:
        raise ValueError(f"ambient rank must be at least k - 1 = {k - 1}, got {r}")
    check_rank(r, POINTSET_RANK_MAX)
    m = circuit(k)
    for _ in range(r - k + 1):
        m = doubling(m)
    return m


def extremal_gs(n: int, r: int) -> BinaryMatroid:
    """Largest matroid with no full rank-n flat and critical number n.

    Size is (1 - 11/2^(n+2)) * 2^r.  Recursively: the order-(n-1)
    extremum inside a hyperplane plus every point outside it; the base
    case n = 2 is the odd-girth-5 extremum.
    """
    if n < 2:
        raise ValueError(f"flat order must be >= 2, got {n}")
    if r < n + 2:
        raise ValueError(f"ambient rank must be at least n + 2 = {n + 2}, got {r}")
    check_rank(r, POINTSET_RANK_MAX)
    if n == 2:
        return extremal_odd_girth(5, r)
    inner = extremal_gs(n - 1, r - 1)
    mask = hyperplane_complement(1, r)  # everything with trailing coordinate 1
    for v in inner.point_list():
        mask |= 1 << (v << 1)
    return BinaryMatroid(r, mask)


# the named families; each takes its builder's parameters, in order
FAMILIES: Dict[str, Callable[..., BinaryMatroid]] = {
    "pg": pg,
    "ag": ag,
    "bose-burton": bose_burton,
    "circuit": circuit,
    "extremal-odd-girth": extremal_odd_girth,
    "extremal-gs": extremal_gs,
}


def build_family(name: str, *values: int) -> BinaryMatroid:
    """The member of family name with the given parameter values.

    Raises ValueError for an unknown name or a wrong number of values;
    the builder checks the values themselves.
    """
    builder = FAMILIES.get(name)
    if builder is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {name!r}; known: {known}")
    wanted = list(inspect.signature(builder).parameters)
    if len(values) != len(wanted):
        raise ValueError(
            f"family {name!r} takes {len(wanted)} parameter(s): {', '.join(wanted)}"
        )
    return builder(*values)
