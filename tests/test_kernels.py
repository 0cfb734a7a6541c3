"""Kernel backends: subset oracles and bit-identical compiled/pure twins."""

import itertools
import random

import pytest

from gf2matroid import backend_name, enumerate_subspaces, iter_bits, mask_from
from gf2matroid._backend import load_kernels

from helpers import random_mask

rng = random.Random(0x4B31)

pure = load_kernels("python")
try:
    compiled = load_kernels("c")
except ImportError:
    compiled = None

backends = [pure] if compiled is None else [pure, compiled]


def test_backend_name_is_known():
    assert backend_name() in ("c", "python")


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
    (5, 5, 0, 2, False, (31, 30), 0, True),
    (5, 7, 0, 2, False, (), 0, True),
    # r=7: two-word bitsets, translations by v >= 64 swap words
    (7, 7, 0, 2, False, (127, 126, 125, 123, 119, 111, 95), 0, True),
]


@pytest.mark.skipif(compiled is None, reason="compiled backend not built")
@pytest.mark.parametrize("case", FORWARD_CASES, ids=repr)
def test_forward_search_backends_bit_identical(case):
    r, g, pg_n, mc, fr, fin, fout, prune = case
    got_c = compiled.forward_search(r, g, pg_n, mc, fr, fin, fout, None, prune)
    got_py = pure.forward_search(r, g, pg_n, mc, fr, fin, fout, None, prune)
    assert got_c == got_py  # best, mask, node count, completed: all four


COMPLEMENT_CASES = [
    # r, flat dims, forbidden_dim, full_rank, max_blocker
    (3, (2,), 0, False, 7),
    (4, (2,), 0, False, 15),
    (4, (2,), 3, False, 15),
    (4, (3,), 0, False, 15),
    (5, (3,), 3, False, 10),
    (5, (3,), 0, True, 8),
    (5, (2,), 0, False, 16),
    (7, (6,), 0, False, 3),
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


def forward_ref(r, g, pg_n, mc, full_rank):
    """Literal maximum over all point sets of GF(2)^r.

    Mirrors the raw kernel contract: pg_free_order 2 is the caller's
    job (folded into min_odd_girth 5 by the search wrapper), so only
    orders 0, 1 and >= 3 appear here.
    """
    from gf2matroid import BinaryMatroid, critical_number, odd_girth

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
def test_complement_search_budget_times_out(kern):
    subs = flats(5, (3,))
    got = kern.complement_search(5, subs, 3, False, 10, 1e-9, True)
    assert got[3] is False


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
def test_forward_search_infeasible_reports_negative(kern):
    # forcing two points while forbidding everything of critical >= 3
    # at rank 1 is impossible: only one nonzero point exists
    best, mask, _, completed = kern.forward_search(
        1, 0, 0, 2, False, (), 0, None, True
    )
    assert completed and best == -1 and mask == 0


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
