"""GF(2) core: encodings, spans, duality, flat enumeration, bitset algebra."""

import random
import tracemalloc
from itertools import combinations, product

import pytest

from gf2matroid import (
    POINTSET_RANK_MAX,
    Subspace,
    dot,
    enumerate_subspaces,
    gaussian_binomial,
    hyperplane_complement,
    iter_bits,
    mask_from,
    nonzero_mask,
    orthogonal_complement,
    rank_of,
    span,
    translate_mask,
)
from gf2matroid.gf2 import largest_subspace_in, subspace_in, subspace_masks
from helpers import or_loop, random_mask

rng = random.Random(0x6F32)


def dot_ref(f: int, v: int) -> int:
    return bin(f & v).count("1") & 1


def test_dot_matches_popcount_parity():
    for _ in range(500):
        f = rng.randrange(1 << 10)
        v = rng.randrange(1 << 10)
        assert dot(f, v) == dot_ref(f, v)


def test_iter_bits_and_mask_from_round_trip():
    for _ in range(100):
        vals = sorted(rng.sample(range(64), rng.randrange(0, 20)))
        mask = mask_from(vals)
        assert list(iter_bits(mask)) == vals
    assert list(iter_bits(0)) == []


def test_mask_from_matches_the_or_loop():
    # repeats, any order, any iterable, up to rank 18
    for _ in range(60):
        top = 1 << rng.randrange(1, 19)
        vs = [rng.randrange(top) for _ in range(rng.randrange(0, 300))]
        assert mask_from(iter(vs)) == or_loop(vs)
    dense = rng.sample(range(1 << 18), 1 << 17)
    assert mask_from(dense) == or_loop(dense)
    assert mask_from([]) == 0
    with pytest.raises(ValueError):
        mask_from([3, -1])


def test_point_mask_matches_the_or_loop():
    for _ in range(40):
        r = rng.randrange(1, 15)
        s = span([rng.randrange(1 << r) for _ in range(rng.randrange(0, r + 1))], r)
        assert s.point_mask() == or_loop(s.vectors()) & ~1


def test_nonzero_mask():
    for r in range(1, 8):
        mask = nonzero_mask(r)
        assert mask == (1 << (1 << r)) - 2
        assert list(iter_bits(mask)) == list(range(1, 1 << r))


def test_rank_of_matches_span_dim():
    for _ in range(200):
        r = rng.randrange(1, 9)
        vecs = [rng.randrange(1 << r) for _ in range(rng.randrange(0, 10))]
        assert rank_of(vecs, r) == span(vecs, r).dim


def test_rank_of_basis():
    assert rank_of([1, 2, 4, 8], 4) == 4
    assert rank_of([3, 5, 6], 3) == 2  # 3 ^ 5 = 6
    assert rank_of([], 5) == 0


def test_span_is_reduced_echelon():
    for _ in range(200):
        r = rng.randrange(1, 9)
        vecs = [rng.randrange(1 << r) for _ in range(rng.randrange(1, 8))]
        s = span(vecs, r)
        pivots = [b.bit_length() - 1 for b in s.basis]
        assert pivots == sorted(pivots, reverse=True)
        for i, b in enumerate(s.basis):
            for j, p in enumerate(pivots):
                if i != j:
                    assert not (b >> p) & 1  # pivot column is cleared
        for v in vecs:
            assert s.contains(v)


def test_span_idempotent_and_canonical():
    for _ in range(100):
        r = rng.randrange(1, 8)
        vecs = [rng.randrange(1 << r) for _ in range(rng.randrange(1, 8))]
        s = span(vecs, r)
        assert span(s.vectors(), r) == s
        # any generating set of the same space reduces to the same basis
        shuffled = s.vectors()
        rng.shuffle(shuffled)
        assert span(shuffled, r) == s


def test_subspace_vectors_and_point_mask():
    s = span([0b110, 0b011], 3)
    assert s.dim == 2
    assert s.vectors() == [0b000, 0b011, 0b101, 0b110]
    assert s.point_mask() == mask_from([0b011, 0b101, 0b110])
    # zero is a subspace element but never a point
    assert not s.point_mask() & 1


def test_subspace_coordinates_round_trip():
    for _ in range(100):
        r = rng.randrange(2, 9)
        s = span([rng.randrange(1 << r) for _ in range(4)], r)
        for v in s.vectors():
            c = s.coordinates(v)
            rebuilt = 0
            for i in range(s.dim):
                if (c >> i) & 1:
                    rebuilt ^= s.basis[i]
            assert rebuilt == v


def test_subspace_coordinates_rejects_outside_vector():
    s = span([0b100, 0b010], 3)
    with pytest.raises(ValueError):
        s.coordinates(0b001)


def test_subspace_validates_basis():
    with pytest.raises(ValueError):
        Subspace(3, (0b011, 0b010))  # two vectors share a pivot
    with pytest.raises(ValueError):
        Subspace(2, (0b01, 0b10))  # pivots must descend
    with pytest.raises(ValueError):
        Subspace(2, (0b11, 0b01))  # echelon but not reduced: bit at a later pivot
    assert span([0b11, 0b01], 2) == Subspace(2, (0b10, 0b01))


def test_orthogonal_complement_dimensions_and_duality():
    for _ in range(100):
        r = rng.randrange(1, 9)
        s = span([rng.randrange(1 << r) for _ in range(rng.randrange(0, 6))], r)
        t = orthogonal_complement(s)
        assert s.dim + t.dim == r
        for b in s.basis:
            for f in t.basis:
                assert dot(f, b) == 0
        assert orthogonal_complement(t) == s


def test_gaussian_binomial_values():
    # [4 choose 2]_2 = 35, re-derived below by direct enumeration
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 2) == 155
    for r in range(0, 7):
        assert gaussian_binomial(r, 0) == 1
        assert gaussian_binomial(r, r) == 1
        if r >= 1:
            assert gaussian_binomial(r, 1) == (1 << r) - 1
        for d in range(0, r + 1):
            assert gaussian_binomial(r, d) == gaussian_binomial(r, r - d)
    assert gaussian_binomial(3, 5) == 0


def test_enumerate_subspaces_counts_match_gaussian_binomial():
    for r in range(1, 6):
        for d in range(0, r + 1):
            subs = list(enumerate_subspaces(r, d))
            assert len(subs) == gaussian_binomial(r, d)
            assert len(set(s.basis for s in subs)) == len(subs)
            for s in subs:
                assert s.dim == d
                assert span(s.vectors(), r) == s
    assert sum(1 for _ in enumerate_subspaces(6, 2)) == 651


def test_enumerate_subspaces_distinct_point_sets():
    masks = [s.point_mask() for s in enumerate_subspaces(4, 2)]
    assert len(set(masks)) == 35
    for mask in masks:
        assert bin(mask).count("1") == 3


def all_echelon_bases_sorted(r, d):
    """Every reduced-echelon basis, listed per pivot set and then sorted."""
    out = []
    for pivots in combinations(range(r - 1, -1, -1), d):
        rows = []
        for p in pivots:
            free = [q for q in range(p) if q not in pivots]
            rows.append(
                [(1 << p) | mask_from(c) for k in range(len(free) + 1)
                 for c in combinations(free, k)]
            )
        out.extend(product(*rows))
    return sorted(out)


def test_enumerate_subspaces_ascending_order_matches_full_sort():
    for r in range(1, 8):
        for d in range(0, r + 1):
            got = [s.basis for s in enumerate_subspaces(r, d)]
            assert got == all_echelon_bases_sorted(r, d), (r, d)


def test_enumerate_subspaces_yields_lazily():
    # the first of the 200,787 subspaces comes without listing the rest,
    # which would take about 17 MB
    tracemalloc.start()
    try:
        first = next(enumerate_subspaces(8, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.basis == (8, 4, 2, 1)
    assert peak < 100_000


def test_subspace_masks_match_enumerate_subspaces():
    # r = 8 adds a last pivot of 7 (d = 1): 128 last rows, two blocks of 64
    cases = [(r, d) for r in range(1, 8) for d in range(0, r + 1)]
    cases += [(8, d) for d in (1, 2, 6, 7, 8)]
    for r, d in cases:
        want = [s.point_mask() for s in enumerate_subspaces(r, d)]
        assert list(subspace_masks(r, d)) == want, (r, d)
    assert list(subspace_masks(4, 5)) == [] and list(subspace_masks(4, -1)) == []


def test_subspace_masks_yield_lazily():
    # the first of the 200,787 masks comes without listing the rest,
    # which would take about 17 MB
    tracemalloc.start()
    try:
        first = next(subspace_masks(8, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == Subspace(8, (8, 4, 2, 1)).point_mask()
    assert peak < 100_000


def test_hyperplane_complement_matches_literal_dot():
    for r in range(1, 7):
        for f in range(1, 1 << r):
            expect = mask_from(v for v in range(1 << r) if dot_ref(f, v))
            assert hyperplane_complement(f, r) == expect


def test_hyperplane_complement_rejects_zero():
    with pytest.raises(ValueError):
        hyperplane_complement(0, 4)


def test_hyperplane_complement_size():
    for r in range(1, 10):
        f = rng.randrange(1, 1 << r)
        assert bin(hyperplane_complement(f, r)).count("1") == 1 << (r - 1)


def test_translate_mask_matches_literal():
    for _ in range(200):
        r = rng.randrange(1, 7)
        mask = rng.randrange(1 << (1 << r))
        v = rng.randrange(1 << r)
        expect = mask_from(u ^ v for u in iter_bits(mask))
        assert translate_mask(mask, v, r) == expect


def test_translate_mask_involution():
    for _ in range(100):
        r = rng.randrange(1, 8)
        mask = rng.randrange(1 << (1 << r))
        v = rng.randrange(1 << r)
        assert translate_mask(translate_mask(mask, v, r), v, r) == mask
        assert translate_mask(mask, 0, r) == mask


def test_rank_limits_enforced():
    # bitset-of-points representations stop at POINTSET_RANK_MAX
    big = span([1], POINTSET_RANK_MAX + 1)
    with pytest.raises(ValueError):
        big.point_mask()
    with pytest.raises(ValueError):
        span([1], 0)
    with pytest.raises(ValueError):
        span([4], 2)  # vector outside GF(2)^2


def greedy_basis(s: Subspace):
    """b_{i+1} = the least element of s outside span(b_1..b_i)."""
    elements, inside, basis = set(s.vectors()), {0}, []
    while inside != elements:
        b = min(elements - inside)
        basis.append(b)
        inside |= {x ^ b for x in inside}
    return tuple(basis)


def test_largest_subspace_in_matches_bruteforce():
    for _ in range(200):
        r = rng.randrange(1, 6)
        mask = random_mask(rng, r, rng.choice((0.3, 0.6, 0.8, 0.95, 1.0)))
        hi = rng.randrange(0, r + 1)
        want = ()
        for d in range(hi, 0, -1):
            inside = [
                greedy_basis(s)
                for s in enumerate_subspaces(r, d)
                if s.point_mask() & ~mask == 0
            ]
            if inside:
                want = min(inside)
                break
        for m in (mask, mask | 1):  # bit 0 is the zero vector, ignored
            assert largest_subspace_in(m, r, hi) == want, (m, r, hi)


def test_subspace_in_matches_bruteforce():
    for _ in range(100):
        r = rng.randrange(1, 6)
        mask = random_mask(rng, r, rng.choice((0.3, 0.6, 0.8, 0.95, 1.0)))
        mask |= rng.randrange(2)
        for d in range(0, r + 2):
            inside = [
                greedy_basis(s)
                for s in enumerate_subspaces(r, d)
                if s.point_mask() & ~mask == 0
            ]
            want = min(inside) if inside else None
            assert subspace_in(mask, d, r) == want, (mask, d, r)
