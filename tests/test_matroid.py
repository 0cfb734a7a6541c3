"""Matroid invariants against brute-force oracles and each other."""

import random
import time

import pytest

from gf2matroid import (
    BinaryMatroid,
    OddGirth,
    ag,
    bose_burton,
    circuit,
    closure,
    conical_lift,
    contract_simplify,
    critical_number,
    critical_number_bruteforce,
    doubling,
    extremal_gs,
    extremal_odd_girth,
    has_pg_restriction,
    is_affine,
    is_isomorphic,
    iter_bits,
    mask_from,
    nonzero_mask,
    odd_girth,
    odd_girth_bruteforce,
    pg,
    pg_restriction,
    span,
)
from gf2matroid.matroid import _vector_labels
from helpers import (
    is_affine_bruteforce,
    is_isomorphic_bruteforce,
    map_matroid,
    or_loop,
    random_full_rank_matroid,
    random_invertible,
    random_matroid,
)

rng = random.Random(0xA11)


def test_odd_girth_total_order():
    inf = OddGirth.INFINITE
    assert inf.is_infinite and inf.value is None
    assert OddGirth(3) < OddGirth(5) < OddGirth(7) < inf
    assert inf > 1_000_000
    assert OddGirth(5) == 5 and OddGirth(5) <= 5 and OddGirth(5) >= 5
    assert OddGirth(5) != 7 and OddGirth(5) < 7
    assert inf == OddGirth(None) and inf != 3
    assert sorted([inf, OddGirth(7), OddGirth(3)]) == [
        OddGirth(3),
        OddGirth(7),
        inf,
    ]


def test_odd_girth_rejects_even_or_small_values():
    for bad in (-1, 0, 1, 2, 4, 6):
        with pytest.raises(ValueError):
            OddGirth(bad)


def test_matroid_validation():
    with pytest.raises(ValueError):
        BinaryMatroid(3, 1)  # zero vector as point
    with pytest.raises(ValueError):
        BinaryMatroid(3, 1 << 256)  # outside the ambient space
    with pytest.raises(ValueError):
        BinaryMatroid.from_vectors(3, [0])
    with pytest.raises(ValueError):
        BinaryMatroid.from_vectors(3, [8])


def test_basic_accessors():
    m = BinaryMatroid.from_vectors(3, [1, 2, 4, 7])
    assert m.size == 4
    assert m.point_list() == [1, 2, 4, 7]
    assert m.contains(7) and not m.contains(3)
    assert m.rank() == 3 and m.is_full_rank
    e = BinaryMatroid(4, 0)
    assert e.is_empty and e.size == 0 and e.rank() == 0


def test_point_list_matches_iter_bits():
    draws = random.Random(0x9B1)
    for r in range(1, 13):
        n_all = 1 << r
        masks = [0, 1 << 1, 1 << (n_all - 1), (1 << n_all) - 2]
        masks += [draws.getrandbits(n_all) & ~1 for _ in range(5)]
        for mask in masks:
            assert BinaryMatroid(r, mask).point_list() == list(iter_bits(mask))
    # rank 18, sparse enough that the iter_bits reference stays quick
    pts = draws.sample(range(1, 1 << 18), 3000) + [(1 << 18) - 1]
    mask = mask_from(pts)
    assert BinaryMatroid(18, mask).point_list() == sorted(pts)
    assert BinaryMatroid(18, mask).point_list() == list(iter_bits(mask))


def test_empty_matroid_conventions():
    e = BinaryMatroid(3, 0)
    assert odd_girth(e) == OddGirth.INFINITE
    assert odd_girth_bruteforce(e) == OddGirth.INFINITE
    assert is_affine(e)
    c, cover = critical_number(e)
    assert c == 0 and cover.size == 0 and cover.covers(e)


def test_is_affine_matches_the_literal_functional_loop():
    draws = random.Random(0xAFF1)
    seen = set()
    for r in range(1, 7):
        assert is_affine(BinaryMatroid(r, 0))
        for _ in range(40):
            drawn = random_matroid(draws, r, draws.choice([0.1, 0.3, 0.6]))
            # a sample of a hyperplane complement, and maybe one point more
            f = draws.randrange(1, 1 << r)
            side = [v for v in range(1, 1 << r) if (f & v).bit_count() & 1]
            pts = draws.sample(side, draws.randrange(len(side) + 1))
            if draws.random() < 0.5:
                pts.append(draws.randrange(1, 1 << r))
            for m in (drawn, BinaryMatroid(r, mask_from(pts))):
                want = is_affine_bruteforce(m)
                assert is_affine(m) is want, (r, m.points)
                seen.add(want)
    assert seen == {True, False}
    for r in range(1, 10):
        for m in [ag(r), pg(r)] + [bose_burton(r, c) for c in range(1, r + 1)]:
            assert is_affine(m) is is_affine_bruteforce(m), (r, m.points)


def test_is_affine_is_fast_at_rank_eighteen():
    # 131,072 points each
    t0 = time.perf_counter()
    assert is_affine(ag(18))
    assert not is_affine(bose_burton(18, 2))
    assert time.perf_counter() - t0 < 5.0


def test_all_rank_three_sets_against_bruteforce():
    # the full census: every point set in GF(2)^r for r = 1, 2, 3
    for r in range(1, 4):
        for half in range(1 << ((1 << r) - 1)):
            m = BinaryMatroid(r, half << 1)
            og = odd_girth(m)
            assert og == odd_girth_bruteforce(m), (r, m.points)
            c, cover = critical_number(m)
            assert c == critical_number_bruteforce(m), (r, m.points)
            assert cover.size == c
            assert cover.covers(m)
            # one fact three ways
            assert is_affine(m) == og.is_infinite == (c <= 1)


def test_random_odd_girth_against_bruteforce():
    for _ in range(150):
        r = rng.randrange(2, 6)
        m = random_matroid(rng, r, rng.choice([0.2, 0.4, 0.6]))
        assert odd_girth(m) == odd_girth_bruteforce(m), (r, m.points)


def test_random_critical_against_bruteforce_rank_four():
    for _ in range(60):
        m = random_matroid(rng, 4, rng.choice([0.25, 0.5, 0.75]))
        c, cover = critical_number(m)
        assert c == critical_number_bruteforce(m), m.points
        assert cover.covers(m) and cover.size == c


def test_construction_girth_and_critical_values():
    assert odd_girth(circuit(5)) == 5
    assert odd_girth(circuit(7)) == 7
    assert odd_girth(pg(3)) == 3
    assert odd_girth(ag(4)) == OddGirth.INFINITE
    assert odd_girth(extremal_odd_girth(5, 6)) == 5
    assert critical_number(ag(4))[0] == 1
    assert critical_number(pg(4))[0] == 4
    assert critical_number(bose_burton(5, 2))[0] == 2
    assert critical_number(extremal_gs(3, 5))[0] == 3
    assert critical_number(circuit(5))[0] == 2


def test_critical_number_of_geometries():
    for r in range(1, 7):
        assert critical_number(pg(r))[0] == r
    for r in range(2, 7):
        assert critical_number(ag(r))[0] == 1
    for r in range(2, 7):
        for c in range(1, r + 1):
            assert critical_number(bose_burton(r, c))[0] == c
    # triangle-free at rank 8: quick only because the affine bound skips
    # the failing hyperplane search
    assert critical_number(extremal_odd_girth(7, 8))[0] == 2


def test_critical_number_search_stops_at_the_affine_bound(monkeypatch):
    # a hyperplane of the span misses the points exactly when they are
    # affine, so the search tops out at dim - 1 or dim - 2 and never
    # makes the exhaustive failing call there
    import gf2matroid.matroid as mod

    real = mod.largest_subspace_in
    his = []

    def recorded(mask, r, hi):
        his.append(hi)
        return real(mask, r, hi)

    monkeypatch.setattr(mod, "largest_subspace_in", recorded)
    draws = random.Random(0xCA9)
    sets = [
        random_matroid(draws, r, d)
        for r in range(1, 7)
        for d in (0.2, 0.5, 0.8)
        for _ in range(4)
    ]
    sets += [ag(r) for r in range(2, 7)] + [pg(r) for r in range(1, 7)]
    sets += [circuit(5), extremal_odd_girth(5, 6)]
    seen = set()
    for m in sets:
        if m.is_empty:
            continue
        his.clear()
        critical_number(m)
        affine = is_affine_bruteforce(m)
        assert his == [m.rank() - (1 if affine else 2)], (m.ambient_rank, m.points)
        seen.add(affine)
    assert seen == {True, False}


def test_critical_number_self_check_raises(monkeypatch):
    # a subspace one dimension above the largest disjoint one meets the
    # points, so its annihilator misses a point; that must raise, even
    # under python -O
    import gf2matroid.matroid as mod

    real = mod.largest_subspace_in

    def widened(mask, r, hi):
        basis = real(mask, r, hi)
        below = span(basis, r)
        return basis + (min(v for v in range(1, 1 << r) if v not in below),)

    monkeypatch.setattr(mod, "largest_subspace_in", widened)
    with pytest.raises(RuntimeError, match="cover"):
        critical_number(ag(3))


def test_monotonicity_under_point_removal():
    # fewer points: girth up, critical down, flats only disappear
    for _ in range(40):
        r = rng.randrange(2, 6)
        big = random_matroid(rng, r, 0.6)
        if big.is_empty:
            continue
        keep = big.points
        for v in big.point_list():
            if rng.random() < 0.4:
                keep &= ~(1 << v)
        small = BinaryMatroid(r, keep)
        assert odd_girth(small) >= odd_girth(big)
        assert critical_number(small)[0] <= critical_number(big)[0]
        for n in range(1, r + 1):
            if has_pg_restriction(small, n):
                assert has_pg_restriction(big, n)


def test_cover_functionals_hit_every_point():
    for _ in range(40):
        m = random_matroid(rng, rng.randrange(2, 6))
        c, cover = critical_number(m)
        for v in m.point_list():
            assert any((f & v).bit_count() & 1 for f in cover.functionals)


def test_pg_restriction_witness():
    for _ in range(60):
        r = rng.randrange(2, 6)
        m = random_matroid(rng, r, 0.7)
        for n in range(1, r + 1):
            w = pg_restriction(m, n)
            assert (w is not None) == has_pg_restriction(m, n)
            if w is not None:
                assert w.dim == n
                assert w.point_mask() & ~m.points == 0


def test_pg_restriction_forces_size_and_critical():
    for _ in range(40):
        r = rng.randrange(2, 6)
        m = random_matroid(rng, r, 0.8)
        for n in range(1, r + 1):
            if has_pg_restriction(m, n):
                assert m.size >= (1 << n) - 1
                assert critical_number(m)[0] >= n


def test_pg_contains_itself():
    for r in range(1, 6):
        assert has_pg_restriction(pg(r), r)
    with pytest.raises(ValueError):
        pg_restriction(pg(3), 4)  # order above the ambient rank
    with pytest.raises(ValueError):
        pg_restriction(pg(3), 0)


def test_closure_is_span_intersect_points():
    for _ in range(50):
        r = rng.randrange(2, 6)
        m = random_matroid(rng, r)
        if m.is_empty:
            continue
        pts = m.point_list()
        sub = mask_from(rng.sample(pts, rng.randrange(1, len(pts) + 1)))
        cl = closure(m, sub)
        sp = span(list(iter_bits(sub)), r)
        assert cl == sp.point_mask() & m.points
        assert closure(m, cl) == cl  # idempotent
        assert cl & sub == sub
    assert closure(m, 0) == 0
    with pytest.raises(ValueError):
        closure(BinaryMatroid(3, 0b100), mask_from([3]))


def test_contract_simplify_of_projective_geometry():
    # contracting one point of PG(3,2) leaves the Fano plane
    m = contract_simplify(pg(4), 1 << 1)
    assert m.ambient_rank == 3
    assert m.size == 7


def test_contract_simplify_shapes():
    for _ in range(40):
        r = rng.randrange(3, 6)
        m = random_matroid(rng, r, 0.7)
        if m.is_empty:
            continue
        pts = m.point_list()
        sub = mask_from(rng.sample(pts, rng.randrange(1, min(3, len(pts)) + 1)))
        d = span(list(iter_bits(sub)), r).dim
        if d >= r:
            continue
        q = contract_simplify(m, sub)
        assert q.ambient_rank == r - d
        # parallel classes collapse: at most one image per original point
        assert q.size <= m.size
    assert contract_simplify(m, 0) == m


def test_contract_spanning_subset_rejected():
    m = pg(3)
    with pytest.raises(ValueError):
        contract_simplify(m, m.points)


def test_isomorphism_reflexive_and_gl_invariant():
    for _ in range(30):
        r = rng.randrange(2, 5)
        m = random_full_rank_matroid(rng, r)
        assert is_isomorphic(m, m)
        img = map_matroid(random_invertible(rng, r), m)
        assert is_isomorphic(m, img), (m.points, img.points)


def test_isomorphism_requires_full_rank():
    flat = BinaryMatroid.from_vectors(3, [1, 2, 3])
    with pytest.raises(ValueError):
        is_isomorphic(flat, flat)


def test_isomorphism_respects_invariants():
    a = circuit(5)
    b = BinaryMatroid.from_vectors(4, [1, 2, 3, 4, 8])  # has a triangle
    assert a.size == b.size
    assert not is_isomorphic(a, b)
    assert not is_isomorphic(pg(3), ag(3))
    assert not is_isomorphic(pg(3), pg(4))


def test_bose_burton_one_is_affine_geometry():
    assert is_isomorphic(bose_burton(4, 1), ag(4))
    assert bose_burton(4, 1).size == ag(4).size == 8


def _families_up_to_rank(top: int):
    """Instances of every construction family at ambient rank <= top."""
    for r in range(2, top + 1):
        yield f"pg({r})", pg(r)
        yield f"ag({r})", ag(r)
        for c in sorted({1, 2, r // 2, r - 1}):
            if 1 <= c < r:
                yield f"bose_burton({r}, {c})", bose_burton(r, c)
    for k in range(3, top + 2, 2):
        yield f"circuit({k})", circuit(k)
    for k in range(5, top + 2, 2):
        for r in range(k - 1, top + 1):
            yield f"extremal_odd_girth({k}, {r})", extremal_odd_girth(k, r)
    for n in range(2, top - 1):
        for r in range(n + 2, top + 1):
            yield f"extremal_gs({n}, {r})", extremal_gs(n, r)
    for k in (5, 7):
        yield f"doubling(circuit({k}))", doubling(circuit(k))
        yield f"conical_lift(circuit({k}))", conical_lift(circuit(k))[0]


def _line_count(m: BinaryMatroid) -> int:
    pts = m.point_list()
    pairs = sum(m.contains(x ^ y) for i, x in enumerate(pts) for y in pts[i + 1 :])
    return pairs // 3


def _swap_changing_line_count(m: BinaryMatroid):
    """m with one point traded for a non-point, full rank and with
    another line count, or None."""
    r, lines = m.ambient_rank, _line_count(m)
    outside = [w for w in range(1, 1 << r) if not m.contains(w)]
    for v in m.point_list():
        for w in outside:
            swap = BinaryMatroid(r, m.points ^ (1 << v) ^ (1 << w))
            if swap.is_full_rank and _line_count(swap) != lines:
                return swap
    return None


def test_isomorphism_matches_the_gl4_oracle():
    # random same-size full-rank pairs at rank 4, a third of them relabelled
    seen = {True: 0, False: 0}
    for i in range(240):
        a = random_full_rank_matroid(rng, 4)
        if i % 3 == 0:
            b = map_matroid(random_invertible(rng, 4), a)
        else:
            b = random_full_rank_matroid(rng, 4)
            while b.size != a.size:
                b = random_full_rank_matroid(rng, 4)
        want = is_isomorphic_bruteforce(a, b)
        assert is_isomorphic(a, b) is want, (a.points, b.points)
        seen[want] += 1
    assert seen[True] >= 80 and seen[False] >= 60, seen


def test_relabelled_constructions_are_isomorphic_within_a_second():
    # random full-rank sets at rank 12 exercise the labels past the
    # families' ranks
    randoms = [
        (f"random rank 12, density {d}", random_full_rank_matroid(rng, 12, d))
        for d in (0.3, 0.5, 0.7)
    ]
    for name, m in list(_families_up_to_rank(9)) + randoms:
        img = map_matroid(random_invertible(rng, m.ambient_rank), m)
        t0 = time.perf_counter()
        assert is_isomorphic(m, img), name
        assert time.perf_counter() - t0 < 1.0, name


def test_one_point_swaps_are_not_isomorphic():
    # drop one point and add one non-point; the line count proves the
    # pair is not isomorphic, independently of is_isomorphic
    checked = 0
    for name, m in _families_up_to_rank(7):
        swap = _swap_changing_line_count(m)
        if swap is None:
            continue  # at most one non-point: every swap is a relabelling
        assert swap.size == m.size
        assert not is_isomorphic(m, swap), name
        img = map_matroid(random_invertible(rng, m.ambient_rank), m)
        assert not is_isomorphic(swap, img), name
        checked += 1
    assert checked == 38, checked


def test_pairs_the_labels_do_not_separate_are_not_isomorphic():
    # supports of two Maiorana-McFarland bent functions, 28 points each:
    # only the Fano plane in the first tells them apart
    bent = (6, 16325145112784283716, 13882060639979581526)
    # the others were found by a seeded random search: equal label
    # multisets, so only the backtrack can answer; odd girth, the
    # critical number or a Fano plane proves each pair is not isomorphic
    for r, pa, pb in [
        (5, 134287416, 705692674),
        (6, 4504705581514818, 882714361712345120),
        (6, 4625205759431410048, 585112001462276),
        (6, 9223407223443554314, 882714361712345120),
        (6, 70643625502740, 1461420836450797568),
        bent,
    ]:
        a, b = BinaryMatroid(r, pa), BinaryMatroid(r, pb)
        assert sorted(_vector_labels(a)) == sorted(_vector_labels(b))
        assert _invariants(a) != _invariants(b)
        assert not is_isomorphic(a, b)
        assert not is_isomorphic(map_matroid(random_invertible(rng, r), b), a)
    # their labels are constant on the points and on the non-points
    r, *supports = bent
    for pts in supports:
        lab = _vector_labels(BinaryMatroid(r, pts))
        assert {lab[u] for u in iter_bits(pts)} == {25}
        assert {lab[u] for u in iter_bits(nonzero_mask(r) & ~pts)} == {24}


def _invariants(m: BinaryMatroid):
    return odd_girth(m), critical_number(m)[0], has_pg_restriction(m, 3)


def test_from_vectors_matches_the_or_loop():
    for _ in range(60):
        r = rng.randrange(1, 11)
        vs = [rng.randrange(1, 1 << r) for _ in range(rng.randrange(0, 1 << r))]
        assert BinaryMatroid.from_vectors(r, iter(vs)).points == or_loop(vs)
    with pytest.raises(ValueError):
        BinaryMatroid.from_vectors(3, [1, 0])
    with pytest.raises(ValueError):
        BinaryMatroid.from_vectors(3, [1, 8])


def test_isomorphic_constructions_across_embeddings():
    # same family built at different coordinates via a random GL image
    for build in (ag(4), bose_burton(4, 2), circuit(5), extremal_odd_girth(5, 5)):
        img = map_matroid(random_invertible(rng, build.ambient_rank), build)
        assert is_isomorphic(build, img)
