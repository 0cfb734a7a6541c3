"""Families: sizes, invariants, lift/doubling behavior, build_family lookup."""

import random

import pytest

from gf2matroid import (
    BinaryMatroid,
    OddGirth,
    ag,
    bose_burton,
    build_family,
    circuit,
    conical_lift,
    contract_simplify,
    critical_number,
    doubling,
    extremal_gs,
    extremal_odd_girth,
    has_pg_restriction,
    hyperplane_complement,
    is_affine,
    is_isomorphic,
    nonzero_mask,
    odd_girth,
    pg,
)
from gf2matroid.constructions import FAMILIES
from helpers import random_full_rank_matroid

rng = random.Random(0xC0C0)


def test_pg_and_ag_shapes():
    for r in range(1, 9):
        g = pg(r)
        assert g.size == (1 << r) - 1
        assert g.points == nonzero_mask(r)
    for r in range(1, 9):
        a = ag(r)
        assert a.size == 1 << (r - 1)
        assert a.points == hyperplane_complement(1 << (r - 1), r)
        assert is_affine(a)


def test_bose_burton_sizes_full_grid():
    for r in range(1, 9):
        for c in range(1, r + 1):
            assert bose_burton(r, c).size == (1 << r) - (1 << (r - c))


def test_bose_burton_extremes():
    for r in range(2, 7):
        assert bose_burton(r, r) == pg(r)  # removes only the zero flat
        assert is_isomorphic(bose_burton(r, 1), ag(r))


def test_bose_burton_is_flat_complement():
    for r in range(2, 7):
        for c in range(1, r):
            b = bose_burton(r, c)
            missing = nonzero_mask(r) & ~b.points
            # the removed points are exactly a rank r-c flat
            assert missing == (1 << (1 << (r - c))) - 2
            assert has_pg_restriction(b, c)
            if c + 1 <= r:
                assert not has_pg_restriction(b, c + 1)


def test_bose_burton_domain():
    with pytest.raises(ValueError):
        bose_burton(4, 0)
    with pytest.raises(ValueError):
        bose_burton(4, 5)


def test_circuit_points_and_girth():
    for k in (3, 5, 7, 9):
        m = circuit(k)
        assert m.ambient_rank == k - 1
        assert m.size == k
        assert m.point_list() == [1 << i for i in range(k - 1)] + [(1 << (k - 1)) - 1]
        assert odd_girth(m) == k
        assert not is_affine(m)
    assert critical_number(circuit(5))[0] == 2


def test_circuit_domain():
    for bad in (1, 2, 4, 6):
        with pytest.raises(ValueError):
            circuit(bad)


def test_conical_lift_shape():
    for _ in range(50):
        r = rng.randrange(1, 6)
        n = random_full_rank_matroid(rng, r)
        m, apex = conical_lift(n)
        assert m.ambient_rank == r + 1
        assert m.size == 2 * n.size + 1
        assert m.contains(apex)
        # every line through the apex is full once it meets the set again
        for q in m.point_list():
            if q != apex:
                assert m.contains(q ^ apex), (n.points, q)


def test_conical_lift_requires_full_rank():
    with pytest.raises(ValueError):
        conical_lift(BinaryMatroid.from_vectors(3, [1, 2, 3]))


def test_conical_lift_of_pg_is_pg():
    # rank grows by one and every point shows up: equality, not just
    # isomorphism
    for r in range(1, 6):
        m, _ = conical_lift(pg(r))
        assert m == pg(r + 1)


def test_contract_apex_recovers_base():
    for _ in range(30):
        r = rng.randrange(2, 5)
        n = random_full_rank_matroid(rng, r)
        m, apex = conical_lift(n)
        back = contract_simplify(m, 1 << apex)
        assert back.size == n.size
        assert is_isomorphic(back, n)


def test_doubling_preserves_invariants_sampled():
    # the full thousand-sample suite lives in the acceptance tests
    for _ in range(60):
        r = rng.randrange(1, 6)
        n = random_full_rank_matroid(rng, r)
        d = doubling(n)
        assert d.ambient_rank == r + 1
        assert d.size == 2 * n.size
        assert critical_number(d)[0] == critical_number(n)[0]
        assert odd_girth(d) == odd_girth(n)
        for order in range(1, r + 1):
            assert has_pg_restriction(d, order) == has_pg_restriction(n, order)


def test_doubling_is_lift_minus_apex():
    for _ in range(20):
        n = random_full_rank_matroid(rng, rng.randrange(1, 5))
        m, apex = conical_lift(n)
        assert doubling(n).points == m.points & ~(1 << apex)


def test_extremal_odd_girth_sizes_full_grid():
    for k in (5, 7):
        for r in range(k - 1, 9):
            m = extremal_odd_girth(k, r)
            assert m.ambient_rank == r
            assert m.size == k << (r - k + 1)
            assert m.is_full_rank


def test_extremal_odd_girth_base_case_is_circuit():
    for k in (5, 7, 9):
        assert extremal_odd_girth(k, k - 1) == circuit(k)


def test_extremal_odd_girth_girth_is_exactly_k():
    for k, r in [(5, 4), (5, 5), (5, 6), (5, 7), (7, 6), (7, 7), (9, 8)]:
        m = extremal_odd_girth(k, r)
        assert odd_girth(m) == OddGirth(k)
        assert not is_affine(m)


def test_extremal_odd_girth_domain():
    for k, r in [(3, 4), (4, 5), (5, 3), (7, 5), (1, 1)]:
        with pytest.raises(ValueError):
            extremal_odd_girth(k, r)


def test_extremal_gs_sizes_full_grid():
    for r in range(4, 9):
        for n in range(2, r - 1):
            m = extremal_gs(n, r)
            assert m.ambient_rank == r
            # (1 - 11/2^(n+2)) * 2^r, exact in integers
            assert m.size * (1 << (n + 2)) == ((1 << (n + 2)) - 11) * (1 << r)
            assert m.is_full_rank


def test_extremal_gs_base_case_matches_odd_girth_family():
    for r in range(4, 8):
        assert extremal_gs(2, r) == extremal_odd_girth(5, r)


def test_extremal_gs_flat_free_with_exact_critical():
    for r, n in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 4)]:
        m = extremal_gs(n, r)
        assert not has_pg_restriction(m, n)
        assert critical_number(m)[0] == n


def test_extremal_gs_domain():
    for n, r in [(1, 4), (2, 3), (3, 4), (5, 6)]:
        with pytest.raises(ValueError):
            extremal_gs(n, r)


def test_build_family_round_trip():
    cases = [
        ("pg", (3,), pg(3)),
        ("ag", (4,), ag(4)),
        ("bose-burton", (5, 2), bose_burton(5, 2)),
        ("circuit", (5,), circuit(5)),
        ("extremal-odd-girth", (5, 6), extremal_odd_girth(5, 6)),
        ("extremal-gs", (3, 5), extremal_gs(3, 5)),
    ]
    for name, values, want in cases:
        assert build_family(name, *values) == want


def test_build_family_errors():
    with pytest.raises(ValueError, match="unknown family 'fano'; known: ag, bose-burton"):
        build_family("fano")
    with pytest.raises(ValueError, match=r"family 'pg' takes 1 parameter\(s\): r$"):
        build_family("pg")
    # the names come from the builder's signature
    with pytest.raises(ValueError, match=r"takes 2 parameter\(s\): k, r$"):
        build_family("extremal-odd-girth", 5)
    with pytest.raises(ValueError, match="parameter"):
        build_family("circuit", 5, 6)
    with pytest.raises(ValueError, match="odd and >= 3"):
        build_family("circuit", 4)


def test_family_listing_is_stable():
    assert set(FAMILIES) == {
        "pg",
        "ag",
        "bose-burton",
        "circuit",
        "extremal-odd-girth",
        "extremal-gs",
    }
