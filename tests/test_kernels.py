"""Kernel backends: subset oracles and bit-identical compiled/pure twins."""

import functools
import itertools
import random
from time import monotonic

import pytest

from gf2matroid import (
    BinaryMatroid,
    backend_name,
    enumerate_subspaces,
    iter_bits,
    mask_from,
    nonzero_mask,
)
from gf2matroid._backend import load_kernels
from gf2matroid.gf2 import subspace_masks
from gf2matroid.search import _forced_basis

from helpers import (
    backends,
    compiled,
    is_affine_bruteforce,
    literal_complement_search,
    pure,
    random_mask,
)

rng = random.Random(0x4B31)


def test_backend_name_is_known():
    assert backend_name() in ("c", "python")


def test_load_kernels_takes_only_the_documented_names():
    assert load_kernels("python") is pure
    for name in ("pure", "py", "compiled"):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            load_kernels(name)


def min_odd_zero_subset_ref(points):
    """Smallest odd subset with XOR zero, by direct enumeration."""
    for size in range(3, len(points) + 1, 2):
        for comb in itertools.combinations(points, size):
            acc = 0
            for v in comb:
                acc ^= v
            if acc == 0:
                return size
    return 0


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_min_odd_zero_subset_matches_enumeration(kern):
    for _ in range(120):
        r = rng.randrange(2, 5)
        pts = [v for v in range(1, 1 << r) if rng.random() < 0.55]
        assert kern.min_odd_zero_subset(pts) == min_odd_zero_subset_ref(pts)
    assert kern.min_odd_zero_subset([]) == 0
    assert kern.min_odd_zero_subset([1, 2, 3]) == 3
    assert kern.min_odd_zero_subset([1, 2, 4, 8, 15]) == 5
    # affine sets have no odd zero-sum subset at all
    assert kern.min_odd_zero_subset([v for v in range(32, 64)]) == 0
    # full geometry at the 63-point cap, and one past it
    assert kern.min_odd_zero_subset(list(range(1, 64))) == 3
    with pytest.raises(ValueError):
        kern.min_odd_zero_subset(list(range(1, 65)))


def has_subspace_mask_ref(mask, d, r):
    return any(s.point_mask() & ~mask == 0 for s in enumerate_subspaces(r, d))


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_has_subspace_mask_matches_flat_enumeration(kern):
    for _ in range(80):
        r = rng.randrange(1, 5)
        mask = rng.randrange(1 << (1 << r))
        for d in range(0, r + 1):
            assert kern.has_subspace_mask(mask, d, r) == has_subspace_mask_ref(
                mask, d, r
            ), (r, d, bin(mask))


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_has_subspace_mask_full_geometry(kern):
    for r in range(1, 6):
        full = (1 << (1 << r)) - 2
        for d in range(0, r + 1):
            assert kern.has_subspace_mask(full, d, r)
        # the zero flat is a subset of anything; nothing bigger fits in 0
        assert kern.has_subspace_mask(0, 0, r)
        assert not kern.has_subspace_mask(0, 1, r)


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_has_subspace_mask_ignores_the_zero_vector(kern):
    # {1, 2, 3} is not inside {0, 1, 2}, and {0} holds no point at all
    assert not kern.has_subspace_mask(0b111, 2, 2)
    assert not kern.has_subspace_mask(0b1, 1, 3)


@pytest.mark.skipif(compiled is None, reason="compiled backend not built")
def test_has_subspace_mask_backends_agree_on_multiword_masks():
    masks = random.Random(0x5B5)
    seen = set()
    for r in (7, 8):
        for density in (0.1, 0.3, 0.6, 0.9):
            for _ in range(5):
                mask = random_mask(masks, r, density)
                for d in (2, 3, 4):
                    got = pure.has_subspace_mask(mask, d, r)
                    assert compiled.has_subspace_mask(mask, d, r) == got, (r, d, mask)
                    # the zero vector must not change the answer
                    for kern in (pure, compiled):
                        assert kern.has_subspace_mask(mask | 1, d, r) == got, (r, d)
                    seen.add(got)
    assert seen == {True, False}


# r=7 cut down to a two-word search that still finishes: every point in
# [24, 104) outside the forced basis is excluded
R7_OUT = [v for v in range(24, 104) if v not in _forced_basis(7)]

FORWARD_CASES = [
    # r, girth, pg_free, min_critical, full_rank, forced_in, forced_out, prune
    (3, 3, 0, 0, False, (), 0, True),
    (3, 5, 0, 2, False, (), 0, True),
    (4, 5, 0, 2, False, (), 0, True),
    (4, 5, 0, 2, False, (), 0, False),
    (4, 5, 0, 0, False, (15, 14), 0, True),
    (4, 5, 0, 0, False, (), mask_from([1, 2, 3]), True),
    (4, 3, 3, 3, True, (), 0, True),
    (4, 0, 3, 3, False, (15, 14), 0, True),
    # the points with x_0 = 1 excluded: no set left has full rank
    (4, 0, 3, 0, True, (), mask_from(range(1, 16, 2)), True),
    (5, 5, 0, 2, False, (31, 30), 0, True),
    (5, 7, 0, 2, False, (), 0, True),
    # r=7: two-word bitsets, translations by v >= 64 swap words
    (7, 7, 0, 2, False, (127, 126, 125, 123, 119, 111, 95), 0, True),
    # flat-free searches under the forced basis, as max_size runs them
    (5, 0, 3, 0, False, _forced_basis(5), 0, True),
    (5, 0, 4, 0, False, _forced_basis(5), 0, True),
    (5, 0, 5, 0, False, _forced_basis(5), 0, True),
    (7, 0, 4, 0, False, _forced_basis(7), mask_from(R7_OUT), True),
    # r=8: four-word bitsets, translations by v >= 128 swap word pairs
    (8, 9, 0, 2, False, _forced_basis(8), 0, True),
    (8, 9, 0, 2, True, _forced_basis(8), 0, True),
]

# (best, nodes) of the flat-free FORWARD_CASES: the trees of the full
# flat test at every include, which the incremental gate keeps.  No
# bound beyond the size bound applies to them.
PINNED_TREES = {
    (5, 3): (24, 39671),
    (5, 4): (28, 3339),
    (5, 5): (30, 51),
    (7, 4): (45, 15849),
}


@pytest.mark.skipif(compiled is None, reason="compiled backend not built")
@pytest.mark.parametrize("case", FORWARD_CASES, ids=repr)
def test_forward_search_backends_bit_identical(case):
    r, g, pg_n, mc, fr, fin, fout, prune = case
    got_c = compiled.forward_search(r, g, pg_n, mc, fr, fin, fout, None, prune)
    got_py = pure.forward_search(r, g, pg_n, mc, fr, fin, fout, None, prune)
    assert got_c == got_py  # best, mask, node count, completed: all four


@pytest.mark.skipif(compiled is None, reason="compiled backend not built")
def test_forward_search_backends_agree_at_the_rank_cap():
    # 64-word bitsets.  Budget 0 stops both twins at their first poll,
    # node 4,096, since no flat-finder call advances the C poll counter.
    args = (12, 5, 0, 2, False, _forced_basis(12), 0, 0.0, True)
    got = compiled.forward_search(*args)
    assert got == pure.forward_search(*args)
    assert (got[0], got[2], got[3]) == (1025, 4096, False)


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize(
    "case", [c for c in FORWARD_CASES if (c[0], c[2]) in PINNED_TREES], ids=repr
)
def test_flat_free_search_trees_are_pinned(kern, case):
    r, g, pg_n, mc, fr, fin, fout, prune = case
    best, _, nodes, completed = kern.forward_search(
        r, g, pg_n, mc, fr, fin, fout, None, prune
    )
    assert completed
    assert (best, nodes) == PINNED_TREES[r, pg_n]


# (best, nodes) of unforced searches, keyed (r, girth, pg_n, critical,
# full_rank, prune), measured with the list frontier and before the
# kernels capped girth - 3 at the largest even number <= r; the bitset
# frontier and the cap must leave these trees as they were
UNFORCED_TREES = {
    # the benchmark's dominant job: max_size r=5 odd girth >= 5
    # non-affine, without symmetry breaking; the half-space bound took
    # it from 237,367 nodes
    (5, 5, 0, 2, False, True): (10, 56067),
    # the literal tree, which no bound touches
    (4, 5, 0, 2, False, False): (5, 6097),
    # girth - 3 above r & ~1, so the cap changes the sums tested
    (3, 7, 0, 0, False, True): (4, 29),
    (3, 9, 0, 2, False, True): (-1, 49),
    (4, 9, 0, 0, False, True): (8, 283),
    (4, 9, 0, 2, False, True): (-1, 1399),
    (4, 9, 0, 0, True, False): (8, 5761),
    (4, 11, 3, 2, True, True): (-1, 1399),
}


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize("case", sorted(UNFORCED_TREES), ids=str)
def test_unforced_search_trees_are_pinned(kern, case):
    r, g, pg_n, mc, fr, prune = case
    best, _, nodes, completed = kern.forward_search(
        r, g, pg_n, mc, fr, (), 0, None, prune
    )
    assert completed
    assert (best, nodes) == UNFORCED_TREES[case]


# (best, nodes) of full-rank searches with every point with x_0 = 1
# excluded, so that no set left has full rank, keyed (r, girth, pg_n,
# critical).  Without the full-rank test they end at (6, 13) and
# (5, 1341).  No unforced tree with nothing excluded moves without it,
# at ranks 3-6: the first maximal set a search reaches has full rank.
FULL_RANK_TREES = {
    (4, 0, 3, 0): (-1, 253),
    (5, 5, 0, 2): (-1, 1919),
}


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize("case", sorted(FULL_RANK_TREES), ids=str)
def test_full_rank_search_trees_are_pinned(kern, case):
    r, g, pg_n, mc = case
    out = mask_from(range(1, 1 << r, 2))
    best, _, nodes, completed = kern.forward_search(
        r, g, pg_n, mc, True, (), out, None, True
    )
    assert completed
    assert (best, nodes) == FULL_RANK_TREES[case]


@pytest.mark.skipif(compiled is None, reason="compiled backend not built")
def test_forward_search_backends_agree_on_every_rank_four_combination():
    grid = itertools.product(
        (0, 5, 7), (0, 1, 3, 4), (0, 2, 3), (False, True), (False, True)
    )
    for g, pg_n, mc, fr, prune in grid:
        args = (4, g, pg_n, mc, fr, (), 0, None, prune)
        assert compiled.forward_search(*args) == pure.forward_search(*args), args


@pytest.mark.skipif(compiled is None, reason="compiled backend not built")
def test_forward_search_backends_agree_on_forced_rank_five_samples():
    draws = random.Random(0x10C5)
    outcomes = set()
    for _ in range(30):
        g = draws.choice((0, 5, 7))
        pg_n = draws.choice((0, 1, 3, 4))
        mc = draws.choice((0, 2, 3))
        fr = draws.random() < 0.5
        prune = draws.random() < 0.5
        fin = tuple(draws.sample(range(1, 32), draws.randrange(2, 6)))
        fout = mask_from(v for v in range(1, 32) if draws.random() < 0.5)
        args = (5, g, pg_n, mc, fr, fin, fout, None, prune)
        got = pure.forward_search(*args)
        assert compiled.forward_search(*args) == got, args
        outcomes.add(got[0] >= 0)
    # some forced sets are infeasible from the start, most are not
    assert outcomes == {True, False}


def literal_replay_args(draws, r, g, pg_n, mc, fr, fin, out_rate=0.2):
    """forward_search arguments with a seeded forced_out avoiding fin."""
    pts = [v for v in range(1, 1 << r) if v not in fin]
    fout = mask_from(v for v in pts if draws.random() < out_rate)
    return (r, g, pg_n, mc, fr, fin, fout, None)


def assert_bounds_replay_literal(kern, args):
    bounded = kern.forward_search(*args, True)
    literal = kern.forward_search(*args, False)
    assert bounded[3] and literal[3]
    # same best and the same witness: a bound only cuts subtrees that
    # cannot beat the best found so far
    assert bounded[:2] == literal[:2], args
    assert bounded[2] <= literal[2]
    return bounded[0]


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_bounded_forward_search_replays_literal_search(kern, r):
    draws = random.Random(0x4A1F + r)
    grid = itertools.product((0, 5, 7, 9), (0, 3, 4), (0, 2, 3), (False, True))
    bests = set()
    for g, pg_n, mc, fr in grid:
        fin = tuple(draws.sample(range(1, 1 << r), draws.randrange(0, 3)))
        args = literal_replay_args(draws, r, g, pg_n, mc, fr, fin)
        bests.add(assert_bounds_replay_literal(kern, args))
    assert -1 in bests and max(bests) > 1


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_bounded_forward_search_replays_literal_search_at_rank_five(kern):
    draws = random.Random(0x5B0D)
    bests = set()
    for _ in range(24):
        g = draws.choice((5, 7))
        mc = draws.choice((2, 3))
        pg_n = draws.choice((0, 3, 4))
        fr = draws.random() < 0.5
        args = literal_replay_args(draws, 5, g, pg_n, mc, fr, _forced_basis(5))
        bests.add(assert_bounds_replay_literal(kern, args))
    # flat-free searches, where the flat gate cuts the tree; forcing
    # half the points out keeps the literal trees small
    for pg_n in (3, 4, 5):
        for _ in range(3):
            mc = draws.choice((0, 2, 3))
            fr = draws.random() < 0.5
            args = literal_replay_args(
                draws, 5, 0, pg_n, mc, fr, _forced_basis(5), out_rate=0.55
            )
            bests.add(assert_bounds_replay_literal(kern, args))
    assert -1 in bests and max(bests) > 5


def no_three_circuit_sets(r):
    """Every point set of PG(r-1, 2) with no 3-circuit, as a bitset."""
    out = []

    def grow(mask, banned, low):
        out.append(mask)
        for v in range(low, 1 << r):
            if not banned >> v & 1:
                new = 1 << v
                for u in iter_bits(mask):
                    new |= 1 << (u ^ v)
                grow(mask | 1 << v, banned | new, v + 1)

    grow(0, 0, 1)
    return out


@pytest.mark.parametrize("r", [2, 3, 4])
def test_half_space_lemma_by_brute_force(r):
    # The forward kernels' half-space bound: a set with no 3-circuit and
    # a point at f = 0 holds at most 2^(r-2) points on each side of the
    # hyperplane f = 0.  Rank 5 (2,534,530 sets) passes too, but takes
    # about a minute.  Both sides are never capped at once: only the
    # 2^r - 1 hyperplane complements reach 2^(r-1) = 2 * half points,
    # and they are affine, so a non-affine best stays below 2 * half.
    sets = no_three_circuit_sets(r)
    if r == 4:
        assert len(sets) == 3049  # the empty set included
    half = 1 << (r - 2)
    ones = [
        mask_from(v for v in range(1, 1 << r) if (f & v).bit_count() & 1)
        for f in range(1 << r)
    ]
    tight = False
    for mask in sets:
        size = mask.bit_count()
        for f in range(1, 1 << r):
            n_one = (mask & ones[f]).bit_count()
            if n_one < size:
                assert n_one <= half and size - n_one <= half, (r, bin(mask), f)
                tight |= half in (n_one, size - n_one)
    assert tight
    big = [mask for mask in sets if mask.bit_count() >= 2 * half]
    assert len(big) == (1 << r) - 1
    for mask in big:
        assert mask.bit_count() == 2 * half
        assert is_affine_bruteforce(BinaryMatroid(r, mask)), (r, bin(mask))


@functools.cache
def flat_masks(r, n):
    return tuple(s.point_mask() for s in enumerate_subspaces(r, n))


def has_flat_through(mask, w, r, n):
    """A rank-n flat through w inside mask, by literal enumeration."""
    return any(f >> w & 1 and f & ~mask == 0 for f in flat_masks(r, n))


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_incremental_flat_gate_matches_enumeration(kern):
    # Force chosen minus v, where chosen has no rank-n flat, and offer
    # only v and w, w feasible before v.  The first include takes the
    # larger of the two; the gate then tests the other only for flats
    # through the first, so best is len(chosen) + 1 exactly when no
    # rank-n flat passes through w inside chosen + {w}.
    draws = random.Random(0x6A7E)
    verdicts = set()
    for _ in range(300):
        r = draws.randrange(3, 6)
        n = draws.randrange(3, r + 1)
        order = list(range(1, 1 << r))
        draws.shuffle(order)
        chosen = 0
        for p in order[: draws.randrange(n, len(order))]:
            if not has_flat_through(chosen | 1 << p, p, r, n):
                chosen |= 1 << p
        pts = list(iter_bits(chosen))
        v = draws.choice(pts)
        before = chosen & ~(1 << v)
        ws = [
            w
            for w in order
            if not chosen >> w & 1 and not has_flat_through(before | 1 << w, w, r, n)
        ]
        if not ws:
            continue
        w = draws.choice(ws)
        out = ((1 << (1 << r)) - 2) & ~chosen & ~(1 << w)
        forced = [p for p in pts if p != v]
        best, _, _, completed = kern.forward_search(
            r, 0, n, 0, False, forced, out, None, True
        )
        assert completed
        free = not has_flat_through(chosen | 1 << w, w, r, n)
        assert best == len(pts) + free, (r, n, bin(chosen), v, w)
        verdicts.add(free)
    assert verdicts == {True, False}


COMPLEMENT_CASES = [
    # r, flat dims, forbidden_dim, full_rank, max_blocker
    (3, (2,), 0, False, 7),
    (4, (2,), 0, False, 15),
    (4, (2,), 3, False, 15),
    (4, (3,), 0, False, 15),
    (5, (3,), 3, False, 10),
    (5, (3,), 0, True, 8),
    (5, (2,), 0, False, 16),
    (5, (2,), 4, False, 21),
    (7, (6,), 0, False, 3),
    # mixed dimensions: the available-point counters start at 7 and 3
    (5, (3, 2), 0, False, 16),
    (5, (4, 2), 3, False, 16),
    # the zero subspace is an empty mask, so no blocker exists
    (4, (0, 2), 0, False, 15),
]


def flats(r, dims):
    return [s.point_mask() for d in dims for s in enumerate_subspaces(r, d)]


@pytest.mark.skipif(compiled is None, reason="compiled backend not built")
@pytest.mark.parametrize("case", COMPLEMENT_CASES, ids=repr)
@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_complement_search_backends_bit_identical(case, sym):
    r, dims, fd, fr, mb = case
    subs = flats(r, dims)
    got_c = compiled.complement_search(r, subs, fd, fr, mb, None, sym)
    got_py = pure.complement_search(r, subs, fd, fr, mb, None, sym)
    assert got_c == got_py


# symmetry broken at every node: each key is r, flat dim, forbidden_dim,
# full_rank, max_blocker, optimum, and the node count of the tree that broke
# symmetry at the root only; each value is the node count of today's tree,
# which must find the same optimum in no more nodes than the root-only tree
PINNED_COMPLEMENT_TREES = {
    (5, 2, 4, False, 21, 21, 107588): 18748,  # verify gs n=2 r=5
    (5, 3, 3, False, 10, 10, 97616): 838,  # verify gs n=3 r=5
    (6, 4, 0, False, 7, 7, 54738): 34,  # verify bose_burton n=4 r=6
    (6, 4, 0, True, 63, 7, 54738): 34,  # max_size_complement r=6 pg-free 4
    (5, 2, 0, False, 15, 15, 1502): 232,
    (5, 3, 0, False, 7, 7, 944): 21,
    (6, 5, 0, False, 3, 3, 64): 5,
}

# without symmetry: where and how symmetry is broken must not change these
# r, flat dim, forbidden_dim, full_rank, max_blocker, optimum, nodes
PINNED_COMPLEMENT_TREES_WITHOUT_SYMMETRY = [
    (5, 2, 4, False, 21, 21, 163372),
    (5, 2, 0, False, 15, 15, 2613),
    (5, 3, 0, False, 7, 7, 3329),
    (6, 5, 0, False, 3, 3, 94),
]


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize("case", PINNED_COMPLEMENT_TREES, ids=repr)
def test_complement_search_trees_are_pinned(kern, case):
    r, n, fd, fr, mb, optimum, root_only_nodes = case
    best, _, got_nodes, completed = kern.complement_search(
        r, flat_masks(r, n), fd, fr, mb, None, True
    )
    assert completed
    assert (best, got_nodes) == (optimum, PINNED_COMPLEMENT_TREES[case])
    assert got_nodes <= root_only_nodes


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize(
    "case", PINNED_COMPLEMENT_TREES_WITHOUT_SYMMETRY, ids=repr
)
def test_complement_search_trees_without_symmetry_are_pinned(kern, case):
    r, n, fd, fr, mb, optimum, nodes = case
    best, _, got_nodes, completed = kern.complement_search(
        r, flat_masks(r, n), fd, fr, mb, None, False
    )
    assert completed
    assert (best, got_nodes) == (optimum, nodes)


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize("dims", [(2,), (3,), (4,), (3, 2), (4, 2)], ids=str)
@pytest.mark.parametrize("fd", [0, 2, 3, 4])
@pytest.mark.parametrize("fr", [False, True], ids=["any", "full-rank"])
def test_complement_symmetry_replays_literal_branching(kern, dims, fd, fr):
    # every family here is closed under GL(5,2), as symmetry=True needs
    subs = flats(5, dims)
    best, mask, nodes, completed = kern.complement_search(
        5, subs, fd, fr, 31, None, True
    )
    want, _, nodes_all, completed_all = kern.complement_search(
        5, subs, fd, fr, 31, None, False
    )
    assert completed and completed_all
    assert best == want
    assert nodes <= nodes_all
    if best >= 0:
        assert mask.bit_count() == best
        assert all(s & mask for s in subs)
        assert fd == 0 or not any(f & ~mask == 0 for f in flat_masks(5, fd))
        assert not fr or BinaryMatroid(5, nonzero_mask(5) & ~mask).is_full_rank


# r, flat dim, forbidden_dim, symmetry, with the full window: each
# literal tree takes about a second or less; lines with t=4 and 3-flats
# with t=3 at rank 5 without symmetry take several seconds, and the
# other rank-6 trees over 15 s
LITERAL_COMPLEMENT_CASES = [
    (5, 2, 0, True),
    (5, 2, 0, False),
    (5, 2, 3, True),
    (5, 2, 3, False),
    (5, 2, 4, True),
    (5, 3, 0, True),
    (5, 3, 0, False),
    (5, 3, 3, True),
    (5, 3, 4, True),
    (5, 3, 4, False),
    (6, 2, 3, True),
    (6, 2, 3, False),
]


@pytest.mark.parametrize("case", LITERAL_COMPLEMENT_CASES, ids=repr)
def test_complement_search_matches_the_literal_search(case):
    # the packing, the counter planes and the flat counters against a
    # search that recounts, tests each flat with subspace_in and packs
    # nothing: same optimum and same first optimal blocker on both twins
    r, n, t, sym = case
    family = flat_masks(r, n)
    window = (1 << r) - 1
    want = literal_complement_search(r, family, t, False, window, sym)
    for kern in backends:
        best, mask, _, completed = kern.complement_search(
            r, family, t, False, window, None, sym
        )
        assert completed and (best, mask) == want, kern.BACKEND_NAME


@pytest.mark.parametrize("case", COMPLEMENT_CASES, ids=repr)
def test_complement_search_ignores_the_zero_vector(case):
    # bit 0 of a subspace mask is the zero vector, no point: it must not
    # count toward any point's subspaces on either backend
    r, dims, fd, fr, mb = case
    subs = flats(r, dims)
    want = pure.complement_search(r, subs, fd, fr, mb, None, True)
    for kern in backends:
        got = kern.complement_search(r, [m | 1 for m in subs], fd, fr, mb, None, True)
        assert got == want, kern.BACKEND_NAME


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_complement_search_empty_subspace_has_no_blocker(kern, sym):
    # a mask with no point cannot be hit, wherever it sits in the family
    lines = list(flats(4, (2,)))
    for family in ([0] + lines, lines + [1], lines[:3] + [0] + lines[3:]):
        best, mask, nodes, completed = kern.complement_search(
            4, family, 0, False, 15, None, sym
        )
        assert (best, mask, nodes, completed) == (-1, 0, 1, True)


@functools.cache
def complement_ref(n, t, full_rank):
    """Smallest point set of GF(2)^4 hitting every n-flat, holding no
    t-flat and, with full_rank, leaving a rank-4 complement; -1 if none.

    Literal search over all 2^15 point subsets, smallest first.
    """
    hit = flat_masks(4, n)
    forbidden = flat_masks(4, t) if t else ()
    for size in range(16):
        for pts in itertools.combinations(range(1, 16), size):
            b = mask_from(pts)
            if not all(f & b for f in hit):
                continue
            if any(f & ~b == 0 for f in forbidden):
                continue
            if full_rank and not BinaryMatroid(4, 0xFFFE & ~b).is_full_rank:
                continue
            return size
    return -1


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
# n = 1: the one blocker is every point, and its empty complement fails
# the full-rank test, which lines and planes never reach at this rank
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [0, 2, 3])
@pytest.mark.parametrize("fr", [False, True], ids=["any", "full-rank"])
@pytest.mark.parametrize("sym", [True, False], ids=["sym", "nosym"])
def test_complement_search_exact_at_rank_four(kern, n, t, fr, sym):
    best, mask, _, completed = kern.complement_search(
        4, flat_masks(4, n), t, fr, 15, None, sym
    )
    assert completed
    assert best == complement_ref(n, t, fr)
    if best >= 0:
        assert mask.bit_count() == best
        assert all(f & mask for f in flat_masks(4, n))
        assert t == 0 or not any(f & ~mask == 0 for f in flat_masks(4, t))


@functools.cache
def forward_ref(r, g, pg_n, mc, full_rank):
    """Literal maximum over all point sets of GF(2)^r.

    Mirrors the raw kernel contract: pg_free_order 2 is the caller's
    job (folded into min_odd_girth 5 by the search wrapper), so only
    orders 0, 1 and >= 3 appear here.
    """
    from gf2matroid import critical_number, odd_girth

    best = -1
    for mask in range(0, 1 << (1 << r), 2):
        m = BinaryMatroid(r, mask)
        if g >= 5:
            og = odd_girth(m)
            if og.value is not None and og.value < g:
                continue
        if pg_n == 1 and mask:
            continue
        if pg_n >= 3 and pure.has_subspace_mask(mask, pg_n, r):
            continue
        if mc >= 1 and critical_number(m)[0] < mc:
            continue
        if full_rank and not m.is_full_rank:
            continue
        best = max(best, m.size)
    return best


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forward_search_exact_at_rank_three(kern):
    for g, pg_n, mc, fr in [
        (3, 0, 1, False),
        (5, 0, 0, False),
        (5, 0, 2, False),
        (3, 1, 0, False),
        (3, 3, 0, True),
        (3, 0, 3, True),
    ]:
        want = forward_ref(3, g, pg_n, mc, fr)
        got = kern.forward_search(3, g, pg_n, mc, fr, (), 0, None, True)
        assert got[3] is True
        assert got[0] == want, (g, pg_n, mc, fr)


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize("pg_n", [3, 4])
@pytest.mark.parametrize("forced", [(), _forced_basis(4)], ids=["free", "basis"])
def test_forward_search_exact_at_rank_four_flat_free(kern, pg_n, forced):
    # the forced basis loses nothing: see max_size
    got = kern.forward_search(4, 0, pg_n, 0, False, forced, 0, None, True)
    assert got[3] is True
    assert got[0] == forward_ref(4, 0, pg_n, 0, False)


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forward_search_prune_toggle_same_optimum(kern):
    for g, mc in [(5, 0), (5, 2), (7, 2)]:
        fast = kern.forward_search(4, g, 0, mc, False, (), 0, None, True)
        slow = kern.forward_search(4, g, 0, mc, False, (), 0, None, False)
        assert fast[0] == slow[0]
        assert fast[3] and slow[3]
        assert slow[2] >= fast[2]  # pruning can only shrink the tree


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forward_search_budget_times_out(kern):
    got = kern.forward_search(5, 5, 0, 2, False, (), 0, 1e-9, True)
    assert got[3] is False  # never claims completion


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forward_search_stops_at_a_real_budget(kern):
    # Unlike a 1e-9 budget, which the first poll catches, this search
    # runs through many polls before its deadline: thousands of nodes,
    # each an include or an exclude pass of some node's loop.
    budget = 0.2
    t0 = monotonic()
    best, _, nodes, completed = kern.forward_search(
        6, 5, 0, 2, False, (), 0, budget, True
    )
    assert monotonic() - t0 <= budget + 0.5
    assert not completed
    assert nodes > 10_000 and best > 0


# Budgets of the flat-free searches below, run as max_size ran them
# before it sent such demands to the complement engine.
FLAT_FREE_BUDGETS = {(5, 4): 0.5, (6, 5): 0.5, (7, 6): 0.5, (8, 4): 0.3, (12, 6): 0.2}


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
@pytest.mark.parametrize("r, pg_n", sorted(FLAT_FREE_BUDGETS))
def test_forward_search_budget_holds_on_flat_free_searches(kern, r, pg_n):
    # Single flat tests cost up to milliseconds here; polling on the
    # node count alone would overshoot the budget by minutes.  A search
    # that finishes must be right (Bose-Burton: 2^r - 2^(r-n+1)); r=5
    # n=4 finishes in 3,339 nodes.
    budget = FLAT_FREE_BUDGETS[r, pg_n]
    t0 = monotonic()
    best, _, _, completed = kern.forward_search(
        r, 0, pg_n, 0, False, _forced_basis(r), 0, budget, True
    )
    assert monotonic() - t0 <= budget + 1.0
    assert completed or (r, pg_n) != (5, 4)
    assert not completed or best == (1 << r) - (1 << (r - pg_n + 1))


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_complement_search_budget_times_out(kern):
    # verify gs n=2 r=5: 18,748 nodes, past the first deadline poll
    subs = flats(5, (2,))
    got = kern.complement_search(5, subs, 4, False, 21, 1e-9, True)
    assert got[3] is False


def test_complement_search_budget_covers_the_flat_listing():
    # both kernels list all [8, 3]_2 = 97,155 forbidden 3-flats through
    # gf2.subspace_masks before their first node; that listing alone
    # outlasts the budget
    budget = 0.05
    for kern in backends:
        t0 = monotonic()
        got = kern.complement_search(8, flat_masks(8, 7), 3, False, 255, budget, True)
        assert monotonic() - t0 <= budget + 0.5, kern.BACKEND_NAME
        assert got[3] is False, kern.BACKEND_NAME
        assert got[2] == 0, kern.BACKEND_NAME  # stopped before the first node


def test_complement_search_budget_covers_the_point_columns():
    # the pure kernel turns the masks into one column per point before
    # its first node and polls after each column; with no forbidden flats
    # that is its first poll, so a budget spent at once stops it there
    # on any machine
    draws = random.Random(0xC015)
    masks = [draws.getrandbits(256) for _ in range(20_000)]
    budget = 1e-9
    t0 = monotonic()
    got = pure.complement_search(8, masks, 0, False, 255, budget, True)
    assert monotonic() - t0 <= budget + 0.5
    assert got[3] is False
    assert got[2] == 0  # stopped before the first node


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_complement_search_budget_holds_on_a_large_family(kern):
    # A node's cost grows with the family: here the [8, 4]_2 = 200,787
    # 4-flats, whose columns the pure kernel builds in a fraction of the
    # budget.  The pure kernel polls every node and the compiled one
    # every CHECK_INTERVAL * 64 scanned words, so the overrun stays near
    # one node, where polling every 4,096 nodes overran a 0.5 s budget by
    # seconds.
    masks = list(subspace_masks(8, 4))
    budget = 0.5
    t0 = monotonic()
    got = kern.complement_search(8, masks, 0, False, 31, budget, True)
    assert monotonic() - t0 <= budget + 0.5
    assert got[3] is False


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_complement_search_polls_while_it_reads_the_family(kern):
    # Both twins check each mask as they read it and poll the deadline
    # every 256 masks: a spent budget stops them before the first node,
    # and before a bad mask that comes later, while with no budget that
    # mask raises on both.
    lines = list(subspace_masks(6, 2))  # 651 masks
    for family in (lines[:100], lines, lines[:300] + [-2] + lines[300:]):
        got = kern.complement_search(6, family, 0, False, 63, 1e-9, True)
        assert got == (-1, 0, 0, False), len(family)
    with pytest.raises(ValueError):
        kern.complement_search(6, lines[:300] + [-2], 0, False, 63, None, True)
    with pytest.raises(ValueError):
        kern.complement_search(6, [-2] + lines, 0, False, 63, 1e-9, True)


def naive_transpose(masks, width):
    return [
        sum((m >> c & 1) << k for k, m in enumerate(masks)) for c in range(width)
    ]


def test_transpose_matches_a_bit_loop():
    draws = random.Random(0x7A5)
    for width in (1, 2, 4, 8, 64, 256):
        for n in (1, 7, 8, 9, 300):
            masks = [draws.getrandbits(width) for _ in range(n)]
            assert pure._transpose(masks, width) == naive_transpose(masks, width)
        assert pure._transpose([], width) == [0] * width
    polls = []
    cols = pure._transpose([0b101, 0b011], 3, lambda: polls.append(1))
    assert cols == [0b11, 0b10, 0b01] and len(polls) == 3


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_complement_search_exact_blocker_cover(kern):
    # every 2-flat of PG(2,2) must be hit: the complement of a max
    # line-free set; optimum complement size for r=3 lines is 3
    subs = flats(3, (2,))
    best, mask, _, completed = kern.complement_search(3, subs, 0, False, 7, None, True)
    assert completed
    assert best == 3
    for s in subs:
        assert s & mask, "a line escaped the blocker"


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forced_points_respected(kern):
    best, mask, _, completed = kern.forward_search(
        4, 5, 0, 0, False, (15, 14), 0, None, True
    )
    assert completed and best >= 2
    assert mask & (1 << 15) and mask & (1 << 14)
    best2, mask2, _, completed2 = kern.forward_search(
        4, 5, 0, 0, False, (), mask_from([15, 14, 13]), None, True
    )
    assert completed2
    assert not mask2 & mask_from([15, 14, 13])


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forced_points_pass_through_the_include_step(kern):
    # a forced point that would close a line, or the plane of PG(2,2),
    # ends the search before its first node
    args = (4, 5, 0, 0, False, (3, 5, 6), 0, None, True)
    assert kern.forward_search(*args) == (-1, 0, 0, True)
    args = (3, 0, 3, 0, False, tuple(range(1, 8)), 0, None, True)
    assert kern.forward_search(*args) == (-1, 0, 0, True)
    # forced_out_mask is cleared last, so a forced point may lie in it
    args = (4, 5, 0, 0, False, (15, 14), 1 << 14, None, True)
    assert kern.forward_search(*args) == (8, 0xFF00, 51, True)
    # the order of the forced points leaves the tree as it is
    basis = _forced_basis(5)
    trees = (((5, 5, 0, 2, False), 10, 153), ((5, 0, 3, 0, False), 24, 39671))
    for head, best, nodes in trees:
        down = kern.forward_search(*head, basis, 0, None, True)
        up = kern.forward_search(*head, tuple(sorted(basis)), 0, None, True)
        assert up == down, head
        assert (down[0], down[2], down[3]) == (best, nodes, True), head


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forward_search_infeasible_reports_negative(kern):
    # forcing two points while forbidding everything of critical >= 3
    # at rank 1 is impossible: only one nonzero point exists
    best, mask, _, completed = kern.forward_search(
        1, 0, 0, 2, False, (), 0, None, True
    )
    assert completed and best == -1 and mask == 0


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forward_search_rejects_repeated_forced_points(kern):
    # a repeat would count twice toward the size the bounds read
    for forced in [(15, 14, 15), (3, 3), (1, 2, 4, 8, 1)]:
        with pytest.raises(ValueError):
            kern.forward_search(4, 5, 0, 2, False, forced, 0, None, True)
    assert kern.forward_search(4, 5, 0, 2, False, (15, 14), 0, None, True)[0] == 5


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_forward_search_rejects_even_girth(kern):
    # the gate tests sums of even size up to girth - 3, so an even
    # demand g would let odd circuits of g - 1 points through
    for g in (4, 6, 8, 40000):
        with pytest.raises(ValueError):
            kern.forward_search(6, g, 0, 0, False, _forced_basis(6), 0, None, True)
    for g in (0, 3, 5, 7):
        assert kern.forward_search(4, g, 0, 0, False, (), 0, None, True)[3]


def test_rank_cap_enforced():
    subs = flats(4, (2,))
    for kern in backends:
        for r in (0, -1, kern.KERNEL_RANK_MAX + 1):
            with pytest.raises(ValueError):
                kern.forward_search(r, 5, 0, 0, False, (), 0, None, True)
            with pytest.raises(ValueError):
                kern.complement_search(r, [], 0, False, 3, None, True)
            with pytest.raises(ValueError):
                kern.has_subspace_mask(6, 1, r)
        # forced vectors must be nonzero vectors of GF(2)^r
        for v in (0, 16, 100, -1):
            with pytest.raises(ValueError):
                kern.forward_search(4, 5, 0, 0, False, (15, v), 0, None, True)
        # every mask must be a set of vectors of GF(2)^r
        for mask in (1 << 16, 1 << 70, -2):
            with pytest.raises(ValueError):
                kern.has_subspace_mask(mask, 1, 4)
            with pytest.raises(ValueError):
                kern.forward_search(4, 5, 0, 0, False, (), mask, None, True)
            with pytest.raises(ValueError):
                kern.complement_search(4, subs + [mask], 0, False, 15, None, True)
        # the forbidden flats need a dimension in [0, r]
        for fd in (-1, 5, -100):
            with pytest.raises(ValueError):
                kern.complement_search(4, subs, fd, False, 15, None, True)
        assert kern.complement_search(4, subs, 4, False, 15, None, True)[3]
