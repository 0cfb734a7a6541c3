"""Extremal search wrappers: exactness, determinism, agreement, budgets."""

import functools
import random
from itertools import product
from time import monotonic

import pytest

from gf2matroid import (
    BinaryMatroid,
    ConstraintSet,
    ag,
    bose_burton,
    circuit,
    critical_number,
    critical_number_bruteforce,
    extremal_gs,
    has_pg_restriction,
    is_affine,
    is_isomorphic,
    max_size,
    max_size_complement,
    odd_girth,
    odd_girth_bruteforce,
    parse,
    pg,
    verify_theorem,
)
from gf2matroid import search
from gf2matroid.search import _forced_basis

from helpers import backends, compiled, pure, random_matroid

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
    # odd girth >= 5 rules out lines, and with them every larger flat
    assert ConstraintSet(min_odd_girth=5, pg_free_order=3).normalized() == (
        5,
        0,
        0,
        False,
    )
    assert ConstraintSet(min_odd_girth=7, pg_free_order=4).normalized()[:2] == (7, 0)
    assert ConstraintSet(min_odd_girth=3, pg_free_order=3).normalized()[:2] == (0, 3)


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
    # at kernel level: max_size sends some of these demands to the
    # complement engine, which would then replay itself
    cases = [(r, cs) for r in range(1, 5) for cs in REPLAY_CONSTRAINTS]
    cases += [(5, cs) for cs in REPLAY_RANK_FIVE]
    checked = 0
    for r, cs in cases:
        try:
            cs.validate(r)
        except ValueError:
            continue
        g, pg_n, mc, fr = cs.normalized()
        basis = _forced_basis(r) if pg_n != 1 else ()
        for kern in backends:
            forced, free = (
                kern.forward_search(r, g, pg_n, mc, fr, fin, 0, None, True)
                for fin in (basis, ())
            )
            assert forced[3] and free[3]
            assert max(forced[0], 0) == max(free[0], 0), (kern.BACKEND_NAME, r, cs)
            for best, mask, _, _ in (forced, free):
                if best >= 0:
                    witness = BinaryMatroid(r, mask)
                    assert witness.size == best
                    assert cs.satisfied_by(witness), (kern.BACKEND_NAME, r, cs)
        checked += 1
    assert checked == 51


def test_threads_agree_with_single_thread(monkeypatch):
    # the parts run in serial DFS order and the first to reach the
    # optimum wins, so every thread count returns the serial answer; each
    # case stays under ~60k serial nodes.  The caller runs part 0 on the
    # backend in use, so both backends run.
    cases = (
        (5, GIRTH5_NONAFFINE, {}),
        (5, GIRTH5_NONAFFINE, {"symmetry_break": False}),
        (5, ConstraintSet(min_odd_girth=7), {}),
        (5, ConstraintSet(min_odd_girth=7, full_rank=True), {}),
        (5, ConstraintSet(min_odd_girth=5, full_rank=True), {"prune": False}),
        (5, ConstraintSet(min_odd_girth=5, min_critical=3), {"prune": False}),
        (5, ConstraintSet(min_critical=3), {"symmetry_break": False}),
        (4, ConstraintSet(pg_free_order=3), {"prune": False}),
        (4, ConstraintSet(pg_free_order=3), {"prune": False, "symmetry_break": False}),
        (4, ConstraintSet(pg_free_order=4, min_critical=2), {"prune": False}),
        (4, ConstraintSet(min_odd_girth=5, pg_free_order=1), {}),
    )
    for kern, (r, cs, kw) in product(backends, cases):
        monkeypatch.setattr(search, "kernels", kern)
        case = (kern.BACKEND_NAME, r, cs, kw)
        single = max_size(r, cs, **kw)
        assert single.method == "forward" and single.exhaustive, case
        for threads in (2, 3, 4, 8):
            multi = max_size(r, cs, threads=threads, **kw)
            got = (multi.optimum, multi.witness, multi.exhaustive)
            assert got == (single.optimum, single.witness, True), (case, threads)


def test_budget_is_a_hard_deadline_under_threads():
    # every part stops at the one shared deadline; the slack covers pool
    # start-up and the kernels checking the clock only every few
    # thousand nodes
    budget, slack = 1.0, 0.5
    for threads in (2, 3):
        rep = max_size(7, GIRTH5_NONAFFINE, budget=budget, threads=threads)
        assert not rep.exhaustive
        assert rep.wall_time <= budget + slack, threads


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
    # a recording stand-in runs the parts in this process, so a large
    # thread count starts no processes at all; of the 2^k parts, for the
    # largest 2^k <= threads and at most 64, the caller runs the first
    # and the pool gets one worker for each of the rest
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
    assert opened == [] and single.threads == 1
    for threads, workers in ((2, 2), (3, 2), (4, 4), (5, 4), (64, 64), (100_000, 64)):
        opened.clear()
        rep = max_size(4, GIRTH5_NONAFFINE, threads=threads)
        assert opened == [workers - 1, workers - 1], threads
        assert rep.threads == workers, threads
        assert (rep.optimum, rep.witness) == (single.optimum, single.witness)
        assert rep.exhaustive


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


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_complement_budget_covers_the_hitting_family(monkeypatch, kern):
    # Listing the [9, 4]_2 = 3,309,747 4-flats to hit takes seconds,
    # before the kernel's first node.
    monkeypatch.setattr(search, "kernels", kern)
    budget = 0.5
    t0 = monotonic()
    rep = max_size_complement(9, ConstraintSet(pg_free_order=4), 63, budget=budget)
    assert monotonic() - t0 <= budget + 0.5
    assert not rep.exhaustive and rep.optimum is None
    assert rep.nodes == 0  # stopped while listing


def test_complement_kernel_gets_the_budget_left(monkeypatch):
    # the kernel's budget is what the subspace listing left of the call's
    passed = []
    real = search.kernels

    class Spy:
        KERNEL_RANK_MAX = real.KERNEL_RANK_MAX

        @staticmethod
        def complement_search(*args):
            passed.append(args[5])
            return real.complement_search(*args)

    monkeypatch.setattr(search, "kernels", Spy)
    rep = max_size_complement(4, ConstraintSet(pg_free_order=3), 15, budget=10.0)
    assert rep.exhaustive
    assert len(passed) == 1 and 0 < passed[0] < 10.0


def test_budget_runs_are_never_exhaustive():
    rep = max_size(6, GIRTH5_NONAFFINE, budget=1e-9)
    assert not rep.exhaustive
    if rep.witness is not None:
        assert GIRTH5_NONAFFINE.satisfied_by(rep.witness)
        assert rep.optimum == rep.witness.size


@functools.cache
def forward_optimum(r, cs):
    """The forward engine's optimum, which max_size runs on flat-free
    demands, and on odd-girth-5 demands other than critical number 2,
    only with prune off.

    Up to rank 4 that is the literal search, max_size with neither
    symmetry breaking nor bounds: it visits every valid set, at most
    2^15.  At rank 5 the literal tree reaches 2^31 - 1 nodes (pg-free
    5), so the forward kernel runs from the forced basis with its
    bounds, as max_size ran it before flat-free demands went to the
    complement engine.  Computed once, on the compiled backend when it
    is built.
    """
    if r <= 4:
        rep = max_size(r, cs, symmetry_break=False, prune=False)
        assert rep.method == "forward" and rep.exhaustive
        return rep.optimum
    kern = compiled or pure
    forced = search._forced_basis(r)
    best, _, _, done = kern.forward_search(r, *cs.normalized(), forced, 0, None, True)
    assert done
    return max(best, 0)


def test_forward_and_complement_agree():
    cases = [
        (4, ConstraintSet(pg_free_order=2), 15),
        (4, ConstraintSet(pg_free_order=2, min_critical=2), 15),
        (4, ConstraintSet(pg_free_order=3), 15),
        (4, ConstraintSet(pg_free_order=3, min_critical=3), 15),
        (5, ConstraintSet(pg_free_order=3), 10),
        # lines: the complement engine forces the basis, as max_size does
        (5, ConstraintSet(pg_free_order=2), 31),
        (5, ConstraintSet(min_odd_girth=5, min_critical=2), 21),
        (5, ConstraintSet(pg_free_order=2, full_rank=True), 16),
        (5, ConstraintSet(min_odd_girth=5, full_rank=True), 31),
    ]
    for r, cs, window in cases:
        comp = max_size_complement(r, cs, window)
        assert comp.exhaustive
        assert comp.optimum == forward_optimum(r, cs), (r, cs)
        assert cs.satisfied_by(comp.witness)


def flat_free_demands():
    """Demands max_size sends to the complement engine: freeness of
    order 3, 4 or 5, critical demand none, 2 or 3, either full-rank
    demand, at ranks 3-5, and orders 4 and 5 at rank 6; and odd girth 5
    with critical demand none, 1, 3 or 4 and either full-rank demand at
    ranks 3-5."""
    for r, orders in ((3, (3,)), (4, (3, 4)), (5, (3, 4, 5)), (6, (4, 5))):
        for n in orders:
            for c in (None, 2, 3):
                for full in (False, True):
                    yield r, ConstraintSet(pg_free_order=n, min_critical=c, full_rank=full)
    for r in (3, 4, 5):
        for c in (None, 1, 3, 4):
            for full in (False, True):
                if c is None or c <= r:
                    yield r, ConstraintSet(min_odd_girth=5, min_critical=c, full_rank=full)


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_max_size_runs_flat_free_demands_on_the_complement_engine(monkeypatch, kern):
    # The forward optimum is the oracle up to rank 5 (forward_optimum).
    # At rank 6 it does not finish for order 4, so the oracle there is
    # the Bose-Burton theorem: no set free of rank-n flats exceeds
    # 2^r - 2^(r-n+1), and bose_burton(r, n - 1) attains it with full
    # rank and critical number n - 1 >= 3.
    demands = list(flat_free_demands())
    want = {}
    for r, cs in demands:
        n = cs.pg_free_order
        if r <= 5:
            want[r, cs] = forward_optimum(r, cs)
        else:
            assert cs.satisfied_by(bose_burton(r, n - 1))
            want[r, cs] = (1 << r) - (1 << (r - n + 1))
    monkeypatch.setattr(search, "kernels", kern)
    for r, cs in demands:
        rep = max_size(r, cs)
        assert (rep.method, rep.threads, rep.exhaustive) == ("complement", 1, True)
        assert rep.optimum == want[r, cs], (r, cs)
        if rep.witness is not None:
            assert rep.witness.size == rep.optimum and cs.satisfied_by(rep.witness)
        if r <= 4:
            # the literal oracle on this backend as well
            literal = max_size(r, cs, symmetry_break=False, prune=False)
            assert literal.method == "forward" and literal.optimum == rep.optimum
    assert len(demands) == 70


def test_flat_free_dispatch_keeps_within_the_family_cap(monkeypatch):
    # one process whatever threads asks for
    def no_pool(*args, **kw):
        raise AssertionError("the complement engine needs no process pool")

    monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
    rep = max_size(6, ConstraintSet(pg_free_order=3), threads=2)
    assert (rep.method, rep.threads, rep.optimum, rep.exhaustive) == (
        "complement",
        1,
        48,
        True,
    )
    # odd girth >= 5 folds freeness of order 3 into lines to hit
    rep = max_size(5, ConstraintSet(min_odd_girth=5, pg_free_order=3), threads=2)
    assert (rep.method, rep.threads, rep.optimum) == ("complement", 1, 16)
    # the forward engine keeps prune=False, critical number exactly 2
    # (forbid_affine included) and order-1 freeness
    for r, cs, optimum, kw in (
        (4, ConstraintSet(pg_free_order=3), 12, {"prune": False}),
        (4, ConstraintSet(min_odd_girth=5), 8, {"prune": False}),
        (5, ConstraintSet(min_odd_girth=5, min_critical=2), 10, {}),
        (5, GIRTH5_NONAFFINE, 10, {}),
        (5, ConstraintSet(pg_free_order=2, forbid_affine=True), 10, {}),
        (4, ConstraintSet(min_odd_girth=5, pg_free_order=1), 0, {}),
    ):
        rep = max_size(r, cs, **kw)
        assert (rep.method, rep.optimum) == ("forward", optimum), (cs, kw)
    # past _FAMILY_MAX flats to hit or to forbid, the forward engine runs;
    # a stand-in returns at once, before any witness needs re-verifying
    monkeypatch.setattr(search, "_run_forward", lambda *args: (-1, 0, 0, False, 1))
    for r, cs in (
        (9, ConstraintSet(pg_free_order=3)),  # [9, 3]_2 = 788,035 planes to hit
        (9, ConstraintSet(pg_free_order=8, min_critical=5)),  # 3,309,747 5-flats
        (11, ConstraintSet(min_odd_girth=5)),  # [11, 2]_2 = 698,027 lines
        (10, ConstraintSet(min_odd_girth=5, min_critical=6)),  # [10, 5]_2 5-flats
    ):
        assert max_size(r, cs).method == "forward", (r, cs)
    # 511 hyperplanes and 511 forbidden 8-flats, or the 174,251 lines of
    # rank 10; a spent budget stops the listing
    for r, cs in (
        (9, ConstraintSet(pg_free_order=8, min_critical=2)),
        (10, ConstraintSet(min_odd_girth=5)),
    ):
        assert max_size(r, cs, budget=0.0).method == "complement", (r, cs)


# odd girth 5 on the complement engine: (rank, critical demand, optimum,
# nodes), the same on both backends
GIRTH_FIVE_TREES = [
    (5, 3, 0, 16),
    (6, 3, 0, 498),
    (6, 4, 0, 22),
    (6, None, 32, 67),
    (7, None, 64, 1863),
]


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_odd_girth_five_trees_are_pinned(monkeypatch, kern):
    monkeypatch.setattr(search, "kernels", kern)
    for r, c, optimum, nodes in GIRTH_FIVE_TREES:
        rep = max_size(r, ConstraintSet(min_odd_girth=5, min_critical=c))
        assert rep.method == "complement" and rep.exhaustive, (r, c)
        assert (rep.optimum, rep.nodes) == (optimum, nodes), (r, c)


# A triangle-free set (odd girth 5) of critical number 3 at rank 7, found
# by the complement engine with the full window; no such set exists at
# rank 6, and Govaerts-Storme caps one at rank 7 by 40 points.
TRIANGLE_FREE_CRITICAL_THREE = """
0000111 0001101 0001111 0010011 0010101 0100101 0100110 1001000
1001011 1001101 1001110 1010100 1010101 1010110 1010111 1011100
1011111 1100001 1100011 1100101 1100111 1101001 1101111 1110101
1110111 1111011 1111101 1111110 1111111
"""


def test_a_triangle_free_set_of_critical_number_three_at_rank_seven():
    m = parse("\n".join(["rank 7"] + TRIANGLE_FREE_CRITICAL_THREE.split()))
    assert m.size == 29 and m.is_full_rank
    assert odd_girth(m) == odd_girth_bruteforce(m) == 5
    assert critical_number(m)[0] == critical_number_bruteforce(m) == 3
    cs = ConstraintSet(min_odd_girth=5, min_critical=3, full_rank=True)
    assert cs.satisfied_by(m)


TRIANGLE_FREE_CRITICAL_THREE_CS = ConstraintSet(min_odd_girth=5, min_critical=3)


def test_no_triangle_free_set_of_critical_number_three_at_rank_six():
    rep = max_size(6, TRIANGLE_FREE_CRITICAL_THREE_CS)
    assert (rep.method, rep.optimum, rep.exhaustive) == ("complement", 0, True)
    assert rep.witness is None


@pytest.mark.deep
def test_forward_kernel_confirms_no_triangle_free_critical_three_set_at_rank_six():
    # 1-2 s compiled, over 30 s pure
    kern = compiled or pure
    norm = TRIANGLE_FREE_CRITICAL_THREE_CS.normalized()
    out = kern.forward_search(6, *norm, search._forced_basis(6), 0, None, True)
    assert out == (-1, 0, 9245881, True)


def complement_grid():
    """Every demand the complement engine can express at ranks 1-4:
    odd girth 5, freeness of order >= 2 or both, with any forbid_affine,
    critical demand and full-rank demand."""
    for r in range(1, 5):
        orders = [None] + list(range(2, r + 1))
        criticals = [None] + list(range(1, r + 1))
        flags = (False, True)
        for g, n, affine, c, full in product((None, 5), orders, flags, criticals, flags):
            if g is not None or n is not None:
                yield r, ConstraintSet(
                    min_odd_girth=g,
                    forbid_affine=affine,
                    min_critical=c,
                    pg_free_order=n,
                    full_rank=full,
                )


@functools.cache
def literal_optimum(r, cs):
    rep = max_size(r, cs, symmetry_break=False, prune=False)
    assert rep.method == "forward" and rep.exhaustive
    return rep.optimum


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_complement_engine_matches_the_literal_search(monkeypatch, kern):
    # rank 1 under forbid_affine asks for critical number 2 > r, which
    # no set reaches; the complement engine says so before listing
    demands = list(complement_grid())
    want = {(r, cs): literal_optimum(r, cs) for r, cs in demands}
    monkeypatch.setattr(search, "kernels", kern)
    for r, cs in demands:
        key = (r, cs)
        reps = [
            max_size_complement(r, cs, (1 << r) - 1, symmetry_break=sym)
            for sym in (True, False)
        ]
        picked = max_size(r, cs)
        g, _, c, _ = cs.normalized()
        assert picked.method == ("forward" if (g, c) == (5, 2) else "complement"), key
        for rep in reps + [picked]:
            assert rep.exhaustive and rep.optimum == want[key], key
            if rep.witness is not None:
                assert cs.satisfied_by(rep.witness), key
    assert len(demands) == 264


def test_kernel_rank_is_checked_before_listing(monkeypatch):
    def no_listing(r, d):
        raise AssertionError(f"listed the {d}-flats of rank {r}")

    monkeypatch.setattr(search, "subspace_masks", no_listing)
    cs = ConstraintSet(pg_free_order=12)
    with pytest.raises(ValueError, match="kernel rank"):
        max_size_complement(13, cs, 3)
    with pytest.raises(ValueError, match="kernel rank"):
        max_size(13, cs)


def test_complement_search_values(monkeypatch):
    rep = max_size_complement(4, ConstraintSet(pg_free_order=2), 15)
    assert rep.exhaustive and rep.optimum == 8
    # frozen traversal anchors on every backend: verify gs n=3 and n=2 at
    # r=5, the first with symmetry at every node, the second with the
    # basis forced
    for kern in backends:
        monkeypatch.setattr(search, "kernels", kern)
        cs = ConstraintSet(pg_free_order=3, min_critical=3)
        rep = max_size_complement(5, cs, 10)
        assert rep.exhaustive and rep.optimum == 21
        assert rep.nodes == 838, kern.BACKEND_NAME
        assert critical_number(rep.witness)[0] >= 3
        cs = ConstraintSet(pg_free_order=2, min_critical=2)
        rep = max_size_complement(5, cs, 21)
        assert rep.exhaustive and rep.optimum == 10
        assert rep.nodes == 68, kern.BACKEND_NAME
        assert critical_number(rep.witness)[0] >= 2


def line_blocking_cases():
    """Every line family at ranks 1-5: girth 5 or order-2 freeness, any
    critical demand, either full-rank demand, three blocker windows."""
    for r in range(1, 6):
        windows = sorted({3, 1 << (r - 1), (1 << r) - 1})
        for line in ({"min_odd_girth": 5}, {"pg_free_order": 2}):
            for c in [None] + list(range(2, r + 1)):
                for full in (False, True):
                    cs = ConstraintSet(min_critical=c, full_rank=full, **line)
                    try:
                        cs.validate(r)
                    except ValueError:
                        continue
                    for window in windows:
                        yield r, cs, window


@pytest.mark.parametrize("kern", backends, ids=lambda k: k.BACKEND_NAME)
def test_complement_basis_forcing_replays_the_literal_search(monkeypatch, kern):
    monkeypatch.setattr(search, "kernels", kern)
    checked = 0
    for r, cs, window in line_blocking_cases():
        forced = max_size_complement(r, cs, window)
        free = max_size_complement(r, cs, window, symmetry_break=False)
        key = (r, cs, window)
        assert forced.optimum == free.optimum, key
        assert forced.exhaustive == free.exhaustive, key
        if forced.witness is not None:
            assert cs.satisfied_by(forced.witness), key
            basis = search._forced_basis(r)
            assert all(forced.witness.contains(v) for v in basis), key
        checked += 1
    assert checked == 164


def test_complement_requires_flat_constraint():
    with pytest.raises(ValueError):
        max_size_complement(4, ConstraintSet(forbid_affine=True), 15)
    with pytest.raises(ValueError):
        max_size_complement(5, ConstraintSet(min_odd_girth=7, pg_free_order=3), 10)
    # order-1 freeness is refused by name, with or without a line family
    for cs in (
        ConstraintSet(pg_free_order=1),
        ConstraintSet(min_odd_girth=5, pg_free_order=1),
    ):
        with pytest.raises(ValueError, match="order 1"):
            max_size_complement(4, cs, 15)


def test_complement_girth_five_is_order_two_freeness():
    rep = max_size_complement(4, ConstraintSet(min_odd_girth=5), 15)
    assert rep.exhaustive and rep.optimum == 8


def test_complement_window_too_small_is_inconclusive():
    rep = max_size_complement(5, ConstraintSet(pg_free_order=3), 5)
    assert not rep.exhaustive
    assert rep.optimum is None
    assert rep.witness is None


def test_engines_agree_on_an_infeasible_demand():
    # no line-free set at rank 5 has critical number >= 3
    cs = ConstraintSet(pg_free_order=2, min_critical=3)
    forced = search._forced_basis(5)
    for kern in backends:
        out = kern.forward_search(5, *cs.normalized(), forced, 0, None, True)
        assert out == (-1, 0, 1037, True), kern.BACKEND_NAME
    rep = max_size(5, cs)
    assert rep.method == "complement" and rep.exhaustive
    assert rep.optimum == 0 and rep.witness is None
    # a window short of all 31 points does not admit every blocker
    rep = max_size_complement(5, cs, 30)
    assert not rep.exhaustive
    assert rep.optimum is None and rep.witness is None


def test_threads_must_be_positive():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            max_size(4, GIRTH5_NONAFFINE, threads=threads)
        for theorem, params in (("main", {"k": 5, "r": 4}), ("gs", {"n": 2, "r": 5})):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                verify_theorem(theorem, params, threads=threads)


def test_verify_theorem_complement_theorems_refuse_threads():
    for theorem in ("bose_burton", "gs"):
        with pytest.raises(ValueError, match="threads"):
            verify_theorem(theorem, {"n": 2, "r": 5}, threads=2)


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


def test_verify_theorem_takes_exactly_the_theorems_parameters():
    # a missing key once raised KeyError and a stray one rode along into
    # the report; both are ValueErrors naming the key
    for theorem, params, key in [
        ("main", {"r": 5}, "'k'"),
        ("main", {"k": 5}, "'r'"),
        ("gs", {"r": 5}, "'n'"),
        ("bose_burton", {}, "'n'"),
    ]:
        with pytest.raises(ValueError, match=f"needs parameter {key}"):
            verify_theorem(theorem, params)
    for theorem, params, key in [
        ("main", {"k": 5, "r": 5, "n": 9}, "'n'"),
        ("gs", {"n": 2, "r": 5, "k": 5}, "'k'"),
        ("bose_burton", {"n": 2, "r": 4, "budget": 1}, "'budget'"),
    ]:
        with pytest.raises(ValueError, match=f"takes no parameter {key}"):
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
