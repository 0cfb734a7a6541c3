"""Shared random generators and kernel backends for the test suite."""

import random
from functools import lru_cache
from itertools import product

from gf2matroid import BinaryMatroid, iter_bits, nonzero_mask, rank_of
from gf2matroid.gf2 import subspace_in, translate_mask
from gf2matroid._backend import load_kernels

pure = load_kernels("python")
try:
    compiled = load_kernels("c")
except ImportError:
    compiled = None

# every kernel backend this machine can load, pure first
backends = [pure] if compiled is None else [pure, compiled]


def random_mask(rng: random.Random, r: int, density: float = 0.5) -> int:
    """Random point bitset over the nonzero vectors of GF(2)^r."""
    mask = 0
    for v in range(1, 1 << r):
        if rng.random() < density:
            mask |= 1 << v
    return mask


def random_matroid(rng: random.Random, r: int, density: float = 0.5) -> BinaryMatroid:
    return BinaryMatroid(r, random_mask(rng, r, density))


def random_full_rank_matroid(
    rng: random.Random, r: int, density: float = 0.5
) -> BinaryMatroid:
    while True:
        m = random_matroid(rng, r, density)
        if not m.is_empty and m.is_full_rank:
            return m


def random_invertible(rng: random.Random, r: int):
    """Images of the unit vectors under a random element of GL(r,2)."""
    while True:
        rows = [rng.randrange(1, 1 << r) for _ in range(r)]
        if rank_of(rows, r) == r:
            return rows


def apply_linear(rows, v: int) -> int:
    """Map v through the matrix whose column for bit i is rows[i]."""
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= rows[i]
        v >>= 1
        i += 1
    return out


def map_matroid(rows, m: BinaryMatroid) -> BinaryMatroid:
    pts = [apply_linear(rows, v) for v in m.point_list()]
    return BinaryMatroid.from_vectors(m.ambient_rank, pts)


def or_loop(vectors) -> int:
    """Bitset of the vectors by OR-ing in 1 << v one vector at a time.

    The bits go into one int per block of 2^12 vectors, which are
    joined at the end, so a dense rank-20 set stays cheap.
    """
    blocks = {}
    for v in vectors:
        blocks[v >> 12] = blocks.get(v >> 12, 0) | 1 << (v & 4095)
    mask = 0
    for hi, bits in blocks.items():
        mask |= bits << (hi << 12)
    return mask


@lru_cache(maxsize=None)
def gl_maps(r: int):
    """Every element of GL(r,2), each as the tuple of images of all 2^r
    vectors; 20,160 of them at r = 4."""
    out = []
    for rows in product(range(1, 1 << r), repeat=r):
        if rank_of(rows, r) == r:
            images = [0]
            for row in rows:
                images += [x ^ row for x in images]
            out.append(tuple(images))
    return out


def is_isomorphic_bruteforce(a: BinaryMatroid, b: BinaryMatroid) -> bool:
    """Whether some element of GL(r,2) maps the points of a into b,
    trying every one; with equal sizes, into is onto."""
    if a.ambient_rank != b.ambient_rank or a.size != b.size:
        return False
    pts = a.point_list()
    return any(
        all((b.points >> g[v]) & 1 for v in pts) for g in gl_maps(a.ambient_rank)
    )


def is_affine_bruteforce(m: BinaryMatroid) -> bool:
    """Whether some functional f has f.v = 1 on every point v, trying all
    2^r - 1 of them."""
    pts = m.point_list()
    return any(
        all((f & v).bit_count() & 1 for v in pts) for f in range(1, 1 << m.ambient_rank)
    )


def literal_complement_search(r, masks, forbidden_dim, full_rank, max_blocker, symmetry):
    """(best, blocker_mask) of complement_search, from its tree grown literally.

    The branching is the kernels': fail-first on the lowest uncovered
    subspace of least count, recounted at every node, then its
    available points, with symmetry those inside span(B) ascending and
    the lowest one outside it.  A branch point that would close a
    forbidden flat is skipped, found by gf2.subspace_in.  A node is cut
    only when its blocker fills the window, with no packing bound.
    Every bound the kernels add cuts only subtrees holding no blocker
    better than the best so far, so both searches meet the same
    improvements in the same order and return the same (best, mask), in
    more nodes here.
    """
    subs = [m & ~1 for m in masks]
    t = forbidden_dim
    best, best_mask = -1, 0

    def closes(b, p):
        # a t-flat through p inside B + {p} pairs its other points as u, u ^ p
        return t > 0 and subspace_in(b & translate_mask(b, p, r), t - 1, r) is not None

    def dfs(b, b_size, avail, span_mask):
        nonlocal best, best_mask
        uncov = [s for s in subs if not s & b]
        if not uncov:
            if full_rank and not BinaryMatroid(r, nonzero_mask(r) & ~b).is_full_rank:
                return
            best, best_mask = b_size, b
            return
        window = max_blocker if best < 0 else min(max_blocker, best - 1)
        if b_size >= window:
            return
        left = min(uncov, key=lambda s: (s & avail).bit_count()) & avail
        if not left:
            return  # some subspace can no longer be hit
        branches = [(p, span_mask) for p in iter_bits(left & span_mask if symmetry else left)]
        outside = left & ~span_mask
        if symmetry and outside:
            p = (outside & -outside).bit_length() - 1
            branches.append((p, span_mask | translate_mask(span_mask, p, r)))
        for p, child_span in branches:
            avail &= ~(1 << p)
            if not closes(b, p):
                dfs(b | 1 << p, b_size + 1, avail, child_span)

    dfs(0, 0, nonzero_mask(r), 1)
    return best, best_mask
