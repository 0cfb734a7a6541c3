"""Acceptance gate: one test per advertised guarantee, in order.

 1. odd-girth-5 non-affine maxima at ranks 4 and 5 match bound and builder
 2. odd-girth-7 non-affine maximum at rank 6, witness is the 7-circuit
 3. flat-freeness maxima at small ranks via complement enumeration
 4. the order-3 critical maximum at rank 5 within a 10-point window
 5. cone and doubling laws on 1000 random full-rank matroids
 6. girth and critical oracles agree with their brute-force twins
 7. both affineness tests agree on every matroid criteria 1-6 touch
 8. closed-form size and density identities, exact rational arithmetic
 9. command line round trips, exit codes and JSON schemas

Each test prints a single "criterion N: PASS" line on success; the
failed assert is the corresponding FAIL.  The rank-6 odd-girth-5 and
rank-7 odd-girth-7 stretch instances run by default (seconds, thanks to
basis forcing), and so do the rank-6 Bose-Burton n=2 and
Govaerts-Storme n=2 and n=4 confirmations (under 0.1 s: the complement
engine forces the basis when it blocks lines and breaks symmetry at
every node otherwise); Govaerts-Storme n=3 at rank 6 is marked deep and
runs only with `pytest -m deep`.
"""

import functools
import json
import random
from fractions import Fraction
from importlib.resources import files

import jsonschema
import pytest

from gf2matroid import (
    BinaryMatroid,
    ConstraintSet,
    VerifyReport,
    ag,
    bose_burton,
    circuit,
    conical_lift,
    critical_number,
    critical_number_bruteforce,
    doubling,
    extremal_gs,
    extremal_odd_girth,
    has_pg_restriction,
    is_affine,
    is_isomorphic,
    max_size,
    max_size_complement,
    odd_girth,
    odd_girth_bruteforce,
    pg,
    read_matroid,
    verify_theorem,
)
from gf2matroid.cli import main

from helpers import random_full_rank_matroid, random_matroid


def _bound_main(k, r):
    return k << (r - k + 1)


def _bound_flat(n, r):
    return (1 << r) - (1 << (r - n + 1))


def _bound_gs(n, r):
    return ((1 << (n + 2)) - 11) << (r - n - 2)


# Searches are cached so criterion 7 can revisit the same witnesses.
@functools.lru_cache(maxsize=None)
def _girth_search(k, r):
    return max_size(r, ConstraintSet(min_odd_girth=k, forbid_affine=True))


@functools.lru_cache(maxsize=None)
def _flat_search(n, r):
    cs = ConstraintSet(pg_free_order=n)
    return max_size_complement(r, cs, (1 << (r - n + 1)) - 1)


@functools.lru_cache(maxsize=None)
def _gs_search(n, r):
    cs = ConstraintSet(pg_free_order=n, min_critical=n)
    return max_size_complement(r, cs, 11 * (1 << (r - n - 2)) - 1)


@functools.lru_cache(maxsize=None)
def _forward_flat_search_r4():
    return max_size(4, ConstraintSet(pg_free_order=2))


# Random pools are rebuilt from fixed seeds so criterion 7 sees the
# exact matroids criteria 5 and 6 exercised.
def _lemma_pool():
    rng = random.Random(1405)
    return [random_full_rank_matroid(rng, rng.randrange(1, 6)) for _ in range(1000)]


def _girth_pool():
    rng = random.Random(2417)
    return [
        random_matroid(rng, rng.randrange(1, 6), 0.15 + 0.7 * rng.random())
        for _ in range(500)
    ]


def _rank3_census():
    return [BinaryMatroid(3, pts << 1) for pts in range(128)]


def _rank4_pool():
    rng = random.Random(3539)
    return [random_matroid(rng, 4) for _ in range(200)]


def _family_grid():
    fams = []
    for r in range(1, 7):
        fams.append(pg(r))
        fams.append(ag(r))
        for c in range(1, r + 1):
            fams.append(bose_burton(r, c))
    for k in (3, 5, 7):
        fams.append(circuit(k))
    for r in (4, 5, 6):
        fams.append(extremal_odd_girth(5, r))
    fams.append(extremal_odd_girth(7, 6))
    for n, r in ((2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)):
        fams.append(extremal_gs(n, r))
    return fams


def test_criterion_1_odd_girth_five_extrema():
    for r, limit in ((4, 1.0), (5, 300.0)):
        rep = _girth_search(5, r)
        want = _bound_main(5, r)
        assert rep.exhaustive
        assert rep.optimum == want
        assert rep.wall_time < limit
        assert rep.constraints.satisfied_by(rep.witness)
        built = extremal_odd_girth(5, r)
        assert built.size == want
        assert rep.constraints.satisfied_by(built)
    print(
        "criterion 1: PASS  odd-girth-5 non-affine maxima are 5 at rank 4 "
        "and 10 at rank 5; the doubling construction attains both"
    )


def test_criterion_2_odd_girth_seven_rank_six():
    rep = _girth_search(7, 6)
    assert rep.exhaustive
    assert rep.optimum == 7 == _bound_main(7, 6)
    assert rep.wall_time < 600.0
    assert is_isomorphic(rep.witness, circuit(7))
    built = extremal_odd_girth(7, 6)
    assert built.size == 7
    assert rep.constraints.satisfied_by(built)
    print(
        "criterion 2: PASS  odd-girth-7 non-affine maximum at rank 6 is 7 "
        "and the witness is the 7-circuit"
    )


def test_criterion_3_flat_freeness_extrema():
    for n, r in ((2, 4), (2, 5), (3, 5)):
        rep = _flat_search(n, r)
        want = _bound_flat(n, r)
        assert rep.exhaustive
        assert rep.optimum == want
        assert rep.wall_time < 600.0
        built = bose_burton(r, n - 1)
        assert built.size == want
        assert rep.constraints.satisfied_by(built)
    # the direct engine agrees with complement enumeration where both run
    fwd = _forward_flat_search_r4()
    assert fwd.exhaustive
    assert fwd.optimum == _flat_search(2, 4).optimum == 8
    print(
        "criterion 3: PASS  flat-freeness maxima 8, 16, 24 found by "
        "complement enumeration; both engines agree at rank 4"
    )


def test_criterion_4_order_three_critical_extremum():
    rep = _gs_search(3, 5)
    want = _bound_gs(3, 5)
    assert rep.exhaustive
    assert rep.optimum == want == 21
    assert rep.wall_time < 1800.0
    built = extremal_gs(3, 5)
    assert built.size == want
    assert critical_number(built)[0] == 3
    assert rep.constraints.satisfied_by(built)
    print(
        "criterion 4: PASS  largest rank-5 set with no full plane and "
        "critical number 3 is 21, attained by the recursive construction"
    )


def test_criterion_5_cone_and_doubling_laws():
    for m in _lemma_pool():
        lifted, _ = conical_lift(m)
        dbl = doubling(m)
        # sizes
        assert lifted.size == 2 * m.size + 1
        assert dbl.size == 2 * m.size
        # critical number: doubling preserves it, the cone adds one
        c = critical_number(m)[0]
        assert critical_number(dbl)[0] == c
        assert critical_number(lifted)[0] == c + 1
        # odd girth survives doubling
        assert odd_girth(dbl) == odd_girth(m)
        # flat content: doubling changes no order, the cone gains one
        mo = 0
        for n in range(1, m.ambient_rank + 1):
            has = has_pg_restriction(m, n)
            assert has_pg_restriction(dbl, n) == has
            if has:
                mo = n
        assert has_pg_restriction(lifted, mo + 1)
    print(
        "criterion 5: PASS  size, critical, girth and flat-content laws "
        "of cone and doubling hold on 1000 random full-rank matroids"
    )


def test_criterion_6_oracles_agree_with_bruteforce():
    girth_pool = _girth_pool()
    grid = _family_grid()
    for m in girth_pool + grid:
        assert odd_girth(m) == odd_girth_bruteforce(m)
    census = _rank3_census()
    rank4 = _rank4_pool()
    for m in census + rank4:
        assert critical_number(m)[0] == critical_number_bruteforce(m)
    print(
        f"criterion 6: PASS  girth oracle on {len(girth_pool)} random + "
        f"{len(grid)} family matroids; critical oracle on all {len(census)} "
        f"rank-3 sets + {len(rank4)} random rank-4"
    )


def test_criterion_7_affineness_tests_agree():
    # regenerate, verbatim, every matroid criteria 1-6 touched
    touched = []
    for k, r in ((5, 4), (5, 5), (7, 6)):
        touched.append(_girth_search(k, r).witness)
        touched.append(extremal_odd_girth(k, r))
    for n, r in ((2, 4), (2, 5), (3, 5)):
        touched.append(_flat_search(n, r).witness)
        touched.append(bose_burton(r, n - 1))
    touched.append(_forward_flat_search_r4().witness)
    touched.append(_gs_search(3, 5).witness)
    touched.append(extremal_gs(3, 5))
    for m in _lemma_pool():
        lifted, _ = conical_lift(m)
        touched += [m, lifted, doubling(m)]
    touched += _girth_pool() + _family_grid() + _rank3_census() + _rank4_pool()
    for m in touched:
        assert is_affine(m) == odd_girth(m).is_infinite
    print(
        f"criterion 7: PASS  functional-existence and odd-circuit affineness "
        f"agree on all {len(touched)} matroids from criteria 1-6"
    )


def test_criterion_8_size_and_density_identities():
    for r in range(4, 9):
        for k in (5, 7, 9):
            if k - 1 <= r:
                assert extremal_odd_girth(k, r).size == _bound_main(k, r)
    for r in range(1, 9):
        for c in range(1, r + 1):
            assert bose_burton(r, c).size == (1 << r) - (1 << (r - c))
    for r in range(4, 9):
        for n in range(2, r - 1):
            assert extremal_gs(n, r).size == _bound_gs(n, r)
    # density deficit of the critical extremum: a hyperplane share plus a
    # line share equals the single closed form, exactly
    for n in range(2, 7):
        lhs = 1 - Fraction(1, 1 << (n - 1)) - Fraction(3, 1 << (n + 2))
        rhs = 1 - Fraction(11, 1 << (n + 2))
        assert lhs == rhs
        m = extremal_gs(n, n + 2)
        assert Fraction(m.size, 1 << (n + 2)) == rhs
    print(
        "criterion 8: PASS  construction sizes match their closed forms "
        "through rank 8 and the density identity holds in exact rationals"
    )


def _schema(name):
    return json.loads((files("gf2matroid") / f"schemas/{name}.schema.json").read_text())


def test_criterion_9_cli_round_trips(tmp_path, capsys, monkeypatch):
    analysis_schema = _schema("analysis")
    search_schema = _schema("search")
    verify_schema = _schema("verify")
    fixtures = [
        ("pg", ["4"]),
        ("ag", ["4"]),
        ("bose-burton", ["5", "2"]),
        ("bb", ["4", "1"]),
        ("circuit", ["5"]),
        ("extremal-odd-girth", ["5", "5"]),
        ("extremal-gs", ["2", "4"]),
    ]
    for family, params in fixtures:
        path = str(tmp_path / f"{family}.pts")
        assert main(["construct", family, *params, "-o", path]) == 0
        capsys.readouterr()
        assert main(["analyze", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        jsonschema.validate(data, analysis_schema)
        built = read_matroid(path)
        assert data["size"] == built.size
        assert data["rank"] == built.ambient_rank
    # exit 0: search with a witness file that parses back to the optimum
    wpath = str(tmp_path / "witness.pts")
    code = main(
        [
            "search",
            "-r",
            "4",
            "--min-odd-girth",
            "5",
            "--forbid-affine",
            "--emit-witness",
            wpath,
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    jsonschema.validate(data, search_schema)
    assert data["optimum"] == 5 == read_matroid(wpath).size
    # exit 0: verify reports a passing bound
    assert main(["verify", "main", "--k", "5", "--r", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, verify_schema)
    assert data["passed"] is True
    # exit 2: a budget too small to finish is inconclusive, not a failure
    code = main(
        [
            "search",
            "-r",
            "6",
            "--min-odd-girth",
            "5",
            "--forbid-affine",
            "--budget",
            "1e-9",
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(data, search_schema)
    assert data["exhaustive"] is False
    # exit 1: a violated bound; fabricated through the engine seam since
    # no true instance fails
    fake = VerifyReport(
        theorem="main",
        params={"k": 5, "r": 4},
        bound=5,
        optimum=4,
        construction_size=5,
        construction_ok=True,
        passed=False,
        inconclusive=False,
        nodes=1,
        wall_time=0.0,
    )
    monkeypatch.setattr("gf2matroid.cli.verify_theorem", lambda *a, **kw: fake)
    assert main(["verify", "main", "--k", "5", "--r", "4"]) == 1
    capsys.readouterr()
    monkeypatch.undo()
    # exit 64: unknown family and domain errors are usage errors
    with pytest.raises(SystemExit) as info:
        main(["construct", "fano", "3"])
    assert info.value.code == 64
    assert main(["construct", "circuit", "4"]) == 64
    capsys.readouterr()
    print(
        "criterion 9: PASS  construct/analyze/search/verify round trips "
        "validate against their schemas and the exit-code contract holds"
    )


def test_deep_criterion_1_stretch_rank_six():
    rep = max_size(6, ConstraintSet(min_odd_girth=5, forbid_affine=True))
    assert rep.exhaustive
    assert rep.optimum == 20 == _bound_main(5, 6)
    assert extremal_odd_girth(5, 6).size == 20
    # at n = 2 Govaerts-Storme is the same statement, proved here by the
    # complement engine: 2^6 - 11 * 2^2 = 20
    gs = verify_theorem("gs", {"n": 2, "r": 6})
    assert gs.passed and gs.optimum == gs.bound == 20
    print("criterion 1 stretch: PASS  odd-girth-5 non-affine maximum 20 at rank 6")


def test_deep_flat_freeness_rank_six():
    rep = verify_theorem("bose_burton", {"n": 2, "r": 6})
    assert rep.passed
    assert rep.optimum == 32


def test_deep_critical_extremum_rank_six_order_four():
    rep = verify_theorem("gs", {"n": 4, "r": 6})
    assert rep.passed
    assert rep.optimum == 53


@pytest.mark.deep
def test_deep_critical_extremum_rank_six_order_three():
    rep = verify_theorem("gs", {"n": 3, "r": 6})
    assert rep.passed
    assert rep.optimum == 42


def test_deep_odd_girth_seven_rank_seven():
    # bound and attainment are covered by criterion 2; this run adds
    # completeness of the rank-7 search, split across processes
    rep = verify_theorem("main", {"k": 7, "r": 7}, threads=4)
    assert rep.passed
    assert rep.optimum == 14
