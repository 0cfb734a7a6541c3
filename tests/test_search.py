"""Extremal search wrappers: exactness, determinism, agreement, budgets."""

import random
from time import monotonic

import pytest

from gf2matroid import (
    BinaryMatroid,
    ConstraintSet,
    ag,
    bose_burton,
    circuit,
    critical_number,
    extremal_gs,
    has_pg_restriction,
    is_affine,
    is_isomorphic,
    max_size,
    max_size_complement,
    odd_girth,
    pg,
    verify_theorem,
)
from gf2matroid import search
from gf2matroid.search import _mask_lex_less

from helpers import backends, random_matroid

rng = random.Random(0x5EA)

GIRTH5_NONAFFINE = ConstraintSet(min_odd_girth=5, forbid_affine=True)


def brute_force_max(r, cs):
    best = -1
    for mask in range(0, 1 << (1 << r), 2):
        m = BinaryMatroid(r, mask)
        if cs.satisfied_by(m):
            best = max(best, m.size)
    return best


def test_constraint_set_validation():
    with pytest.raises(ValueError, match="empty"):
        ConstraintSet().validate(4)
    with pytest.raises(ValueError, match="girth"):
        ConstraintSet(min_odd_girth=4).validate(4)
    with pytest.raises(ValueError, match="girth"):
        ConstraintSet(min_odd_girth=1).validate(4)
    with pytest.raises(ValueError, match="critical"):
        ConstraintSet(min_critical=5).validate(4)
    with pytest.raises(ValueError, match="critical"):
        ConstraintSet(min_critical=0).validate(4)
    with pytest.raises(ValueError, match="order"):
        ConstraintSet(pg_free_order=9).validate(4)
    ConstraintSet(min_odd_girth=5).validate(4)  # fine


def test_normalized_folds_overlaps():
    assert ConstraintSet(pg_free_order=2).normalized() == (5, 0, 0, False)
    assert ConstraintSet(min_odd_girth=3, forbid_affine=True).normalized() == (
        0,
        0,
        2,
        False,
    )
    assert ConstraintSet(min_odd_girth=7, pg_free_order=2).normalized() == (
        7,
        0,
        0,
        False,
    )
    assert ConstraintSet(min_critical=3, forbid_affine=True).normalized() == (
        0,
        0,
        3,
        False,
    )


def test_mask_lex_less_prefers_low_bits():
    # equal sizes: the set whose ascending point list comes first wins
    assert _mask_lex_less(0b0110, 0b1010)
    assert not _mask_lex_less(0b1010, 0b0110)
    assert not _mask_lex_less(0b0110, 0b0110)


def test_max_size_matches_brute_force_rank_three():
    for cs in [
        ConstraintSet(min_odd_girth=5),
        GIRTH5_NONAFFINE,
        ConstraintSet(forbid_affine=True),
        ConstraintSet(pg_free_order=2),
        ConstraintSet(pg_free_order=3, full_rank=True),
        ConstraintSet(min_critical=2),
    ]:
        rep = max_size(3, cs)
        assert rep.exhaustive
        want = brute_force_max(3, cs)
        got = rep.optimum if rep.optimum is not None else -1
        if want < 0:
            assert rep.optimum is None or rep.optimum == 0
            assert rep.witness is None
        else:
            assert got == want, cs


def test_max_size_matches_brute_force_rank_four_girth():
    cs = GIRTH5_NONAFFINE
    rep = max_size(4, cs)
    assert rep.exhaustive and rep.optimum == 5
    assert brute_force_max(4, cs) == 5
    w = rep.witness
    assert w is not None and w.size == 5
    assert cs.satisfied_by(w)


def test_witness_always_re_verifies():
    for cs, r in [
        (GIRTH5_NONAFFINE, 4),
        (ConstraintSet(pg_free_order=2), 4),
        (ConstraintSet(min_odd_girth=7), 5),
        (ConstraintSet(min_critical=3, full_rank=True), 4),
    ]:
        rep = max_size(r, cs)
        assert rep.exhaustive
        assert rep.witness is not None
        assert cs.satisfied_by(rep.witness)
        assert rep.witness.size == rep.optimum


def replay_sets():
    """Seeded random sets at ranks 1-6 and the named families up to rank 6."""
    local = random.Random(0xC417)
    for r in range(1, 7):
        for density in (0.3, 0.6, 0.85, 0.95):
            yield random_matroid(local, r, density)
        yield pg(r)
        yield ag(r)
        for c in range(1, r + 1):
            yield bose_burton(r, c)
        for n in range(2, r - 1):
            yield extremal_gs(n, r)


def test_critical_certificate_replays_the_flat_search():
    # satisfied_by skips has_pg_restriction when the critical number is
    # below the order; its verdicts must match the search on every order
    certified = searched = 0
    for m in replay_sets():
        r = m.ambient_rank
        cn = critical_number(m)[0]
        for n in range(1, r + 1):
            free = not has_pg_restriction(m, n)
            if cn < n:
                certified += 1
            else:
                searched += 1
            for c in [None] + list(range(1, r + 1)):
                cs = ConstraintSet(pg_free_order=n, min_critical=c)
                want = free and (c is None or cn >= c)
                assert cs.satisfied_by(m) == want, (r, m.points, n, c)
    assert (certified, searched) == (99, 150)  # both routes are replayed


def test_bose_burton_witnesses_skip_the_flat_search(monkeypatch):
    calls = []

    def counted(m, n):
        calls.append((m.points, n))
        return has_pg_restriction(m, n)

    monkeypatch.setattr(search, "has_pg_restriction", counted)
    rep = verify_theorem("bose_burton", {"n": 5, "r": 6})
    assert rep.passed
    assert calls == []


def test_girth_seven_nonaffine_needs_rank_six():
    # a 7-circuit spans rank 6, and 3- and 5-circuits are banned, so
    # no rank-5 point set qualifies
    rep = max_size(5, ConstraintSet(min_odd_girth=7, forbid_affine=True))
    assert rep.exhaustive and rep.optimum == 0 and rep.witness is None
    # without the affineness ban the optimum is the affine slice
    rep = max_size(5, ConstraintSet(min_odd_girth=7))
    assert rep.exhaustive and rep.optimum == 16


def test_infeasible_constraints_report_none_witness():
    # girth >= 5 and non-affine is impossible at rank 3 (the largest
    # triangle-free sets are affine slices)
    rep = max_size(3, GIRTH5_NONAFFINE)
    assert rep.exhaustive
    assert rep.optimum == 0
    assert rep.witness is None


def test_empty_set_is_a_valid_witness():
    # freeness of order 1 forbids every point; the empty set attains it
    rep = max_size(3, ConstraintSet(pg_free_order=1))
    assert rep.exhaustive and rep.optimum == 0
    assert rep.witness is not None and rep.witness.is_empty


def test_single_thread_determinism():
    a = max_size(5, GIRTH5_NONAFFINE)
    b = max_size(5, GIRTH5_NONAFFINE)
    assert a.optimum == b.optimum == 10
    assert a.witness == b.witness
    assert a.nodes == b.nodes == 153  # frozen traversal anchor


def test_symmetry_and_prune_toggles_do_not_change_optimum():
    base = max_size(4, GIRTH5_NONAFFINE)
    nosym = max_size(4, GIRTH5_NONAFFINE, symmetry_break=False)
    noprune = max_size(4, GIRTH5_NONAFFINE, prune=False)
    assert base.optimum == nosym.optimum == noprune.optimum == 5
    assert nosym.nodes >= base.nodes
    for rep in (base, nosym, noprune):
        assert GIRTH5_NONAFFINE.satisfied_by(rep.witness)


REPLAY_CONSTRAINTS = [
    ConstraintSet(min_odd_girth=5),
    ConstraintSet(min_odd_girth=7),
    GIRTH5_NONAFFINE,
    ConstraintSet(min_odd_girth=7, forbid_affine=True),
    ConstraintSet(forbid_affine=True),
    ConstraintSet(min_critical=2),
    ConstraintSet(min_critical=3),
    ConstraintSet(min_odd_girth=5, min_critical=3),
    ConstraintSet(pg_free_order=2),
    ConstraintSet(pg_free_order=3),
    ConstraintSet(pg_free_order=4),
    ConstraintSet(pg_free_order=3, min_critical=2),
    ConstraintSet(pg_free_order=4, min_critical=3),
    ConstraintSet(pg_free_order=3, full_rank=True),
    ConstraintSet(min_odd_girth=5, full_rank=True),
    ConstraintSet(min_odd_girth=7, forbid_affine=True, full_rank=True),
]

# the unforced search is slow at rank 5 for flat-freeness and order-3
# critical demands, so rank 5 replays only these
REPLAY_RANK_FIVE = [
    ConstraintSet(min_odd_girth=5),
    ConstraintSet(min_odd_girth=7),
    GIRTH5_NONAFFINE,
    ConstraintSet(min_odd_girth=5, full_rank=True),
    ConstraintSet(min_critical=3),
]


def test_basis_forcing_replays_the_unforced_search():
    cases = [(r, cs) for r in range(1, 5) for cs in REPLAY_CONSTRAINTS]
    cases += [(5, cs) for cs in REPLAY_RANK_FIVE]
    checked = 0
    for r, cs in cases:
        try:
            cs.validate(r)
        except ValueError:
            continue
        forced = max_size(r, cs)
        free = max_size(r, cs, symmetry_break=False)
        assert forced.exhaustive and free.exhaustive
        assert forced.optimum == free.optimum, (r, cs)
        for rep in (forced, free):
            if rep.witness is not None:
                assert rep.witness.size == rep.optimum
                assert cs.satisfied_by(rep.witness), (r, cs)
            else:
                assert rep.optimum == 0
        checked += 1
    assert checked == 51


def test_threads_agree_with_single_thread():
    single = max_size(5, GIRTH5_NONAFFINE, threads=1)
    multi = max_size(5, GIRTH5_NONAFFINE, threads=2)
    again = max_size(5, GIRTH5_NONAFFINE, threads=2)
    assert multi.optimum == single.optimum == 10
    assert multi.witness == again.witness  # schedule independent
    assert GIRTH5_NONAFFINE.satisfied_by(multi.witness)


def test_budget_is_a_hard_deadline_under_threads():
    # every pool subtask stops at the one shared deadline; the slack
    # covers pool start-up and the kernels checking the clock only
    # every few thousand nodes
    budget, slack = 1.0, 0.5
    rep = max_size(7, GIRTH5_NONAFFINE, budget=budget, threads=2)
    assert not rep.exhaustive
    assert rep.wall_time <= budget + slack


def test_budget_must_be_a_nonnegative_number():
    pg_free = ConstraintSet(pg_free_order=2)
    for budget in (float("nan"), -1.0, float("-inf")):
        with pytest.raises(ValueError, match="budget"):
            max_size(3, GIRTH5_NONAFFINE, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            max_size(3, GIRTH5_NONAFFINE, budget=budget, threads=2)
        with pytest.raises(ValueError, match="budget"):
            max_size_complement(3, pg_free, 7, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            verify_theorem("main", {"k": 5, "r": 4}, budget=budget)
    assert max_size(3, GIRTH5_NONAFFINE, budget=0.0).nodes > 0


def test_pool_workers_capped_at_subtask_count(monkeypatch):
    # a recording stand-in runs the subtasks in this process, so a large
    # thread count starts no processes at all
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            opened.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
    single = max_size(4, GIRTH5_NONAFFINE)
    for threads, workers, tasks in ((100_000, 64, 64), (2, 2, 4)):
        opened.clear()
        rep = max_size(4, GIRTH5_NONAFFINE, threads=threads)
        assert opened == [workers, tasks], threads
        assert rep.optimum == single.optimum and rep.exhaustive


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_huge_odd_girth_demand_finishes_inside_its_budget(monkeypatch, kern):
    # An odd circuit has at most r + 1 points, so the kernels test sums
    # of at most r points however large the demand.  Odd girth >= 40001
    # at rank 6 means affine: 2^(r-1) points.
    monkeypatch.setattr(search, "kernels", kern)
    budget = 0.5
    t0 = monotonic()
    rep = max_size(6, ConstraintSet(min_odd_girth=40001), budget=budget)
    assert monotonic() - t0 < budget
    assert rep.exhaustive and rep.optimum == 32


def test_budget_runs_are_never_exhaustive():
    rep = max_size(6, GIRTH5_NONAFFINE, budget=1e-9)
    assert not rep.exhaustive
    if rep.witness is not None:
        assert GIRTH5_NONAFFINE.satisfied_by(rep.witness)
        assert rep.optimum == rep.witness.size


def test_forward_and_complement_agree():
    cases = [
        (4, ConstraintSet(pg_free_order=2), 15),
        (4, ConstraintSet(pg_free_order=2, min_critical=2), 15),
        (4, ConstraintSet(pg_free_order=3), 15),
        (4, ConstraintSet(pg_free_order=3, min_critical=3), 15),
        (5, ConstraintSet(pg_free_order=3), 10),
    ]
    for r, cs, window in cases:
        fwd = max_size(r, cs)
        comp = max_size_complement(r, cs, window)
        assert fwd.exhaustive and comp.exhaustive
        assert fwd.optimum == comp.optimum, (r, cs)
        assert cs.satisfied_by(comp.witness)


def test_complement_search_values():
    rep = max_size_complement(4, ConstraintSet(pg_free_order=2), 15)
    assert rep.exhaustive and rep.optimum == 8
    rep = max_size_complement(5, ConstraintSet(pg_free_order=3, min_critical=3), 10)
    assert rep.exhaustive and rep.optimum == 21
    assert rep.nodes == 838  # frozen traversal anchor
    assert critical_number(rep.witness)[0] >= 3


def test_complement_requires_flat_constraint():
    with pytest.raises(ValueError):
        max_size_complement(4, ConstraintSet(forbid_affine=True), 15)
    with pytest.raises(ValueError):
        max_size_complement(5, ConstraintSet(min_odd_girth=7, pg_free_order=3), 10)


def test_complement_girth_five_is_order_two_freeness():
    rep = max_size_complement(4, ConstraintSet(min_odd_girth=5), 15)
    assert rep.exhaustive and rep.optimum == 8


def test_complement_window_too_small_is_inconclusive():
    rep = max_size_complement(5, ConstraintSet(pg_free_order=3), 5)
    assert not rep.exhaustive
    assert rep.optimum is None
    assert rep.witness is None


def test_verify_theorem_main():
    rep = verify_theorem("main", {"k": 5, "r": 4})
    assert rep.passed and not rep.inconclusive
    assert rep.bound == 5 and rep.optimum == 5
    assert rep.construction_size == 5 and rep.construction_ok


def test_verify_theorem_main_seven():
    rep = verify_theorem("main", {"k": 7, "r": 6})
    assert rep.passed
    assert rep.bound == 7 and rep.optimum == 7


def test_verify_theorem_bose_burton():
    rep = verify_theorem("bose_burton", {"n": 2, "r": 4})
    assert rep.passed and rep.optimum == 8
    rep = verify_theorem("bose_burton", {"n": 3, "r": 5})
    assert rep.passed and rep.optimum == 24


def test_verify_theorem_gs():
    rep = verify_theorem("gs", {"n": 2, "r": 4})
    assert rep.passed and rep.optimum == 5
    rep = verify_theorem("gs", {"n": 3, "r": 5})
    assert rep.passed and rep.optimum == 21


def test_verify_theorem_budget_inconclusive():
    rep = verify_theorem("main", {"k": 5, "r": 6}, budget=1e-9)
    assert rep.inconclusive and not rep.passed


def test_verify_theorem_domain_errors():
    for theorem, params in [
        ("main", {"k": 4, "r": 5}),
        ("main", {"k": 5, "r": 3}),
        ("bose_burton", {"n": 1, "r": 4}),
        ("bose_burton", {"n": 5, "r": 4}),
        ("gs", {"n": 2, "r": 3}),
        ("gs", {"n": 1, "r": 4}),
        ("nope", {"r": 4}),
    ]:
        with pytest.raises(ValueError):
            verify_theorem(theorem, params)


def test_search_report_json_shape():
    rep = max_size(4, GIRTH5_NONAFFINE)
    d = rep.to_json_dict()
    assert d["report"] == "search"
    assert d["optimum"] == 5
    assert d["witness"]["rank"] == 4
    assert all(len(p) == 4 and set(p) <= {"0", "1"} for p in d["witness"]["points"])
    assert d["exhaustive"] is True
    assert d["constraints"]["min_odd_girth"] == 5


def test_witness_matches_known_extremal_structure():
    # the unique-by-isomorphism girth-7 witness at rank 6 is the 7-circuit
    rep = max_size(6, ConstraintSet(min_odd_girth=7, forbid_affine=True))
    assert rep.optimum == 7
    assert is_isomorphic(rep.witness, circuit(7))
