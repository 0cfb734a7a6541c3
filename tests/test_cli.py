"""Command line front end: subcommands, exit codes, JSON schemas."""

import io
import json
import random
from importlib.resources import files

import jsonschema
import pytest

from gf2matroid import (
    FamilySpec,
    ag,
    bose_burton,
    circuit,
    extremal_gs,
    extremal_odd_girth,
    has_pg_restriction,
    odd_girth,
    parse,
    pg,
    read_matroid,
)
from gf2matroid.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    THREADS_ENV,
    analysis_dict,
    main,
)
from gf2matroid.search import VerifyReport
from helpers import random_matroid


def schema(name):
    return json.loads((files("gf2matroid") / f"schemas/{name}.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAMILY_FIXTURES = [
    ("pg", ["3"], 7),
    ("ag", ["4"], 8),
    ("bose-burton", ["5", "2"], 24),
    ("bb", ["5", "2"], 24),
    ("circuit", ["5"], 5),
    ("extremal-odd-girth", ["5", "6"], 20),
    ("extremal-gs", ["3", "5"], 21),
]


@pytest.mark.parametrize("family,params,size", FAMILY_FIXTURES)
def test_construct_to_stdout(capsys, family, params, size):
    code, out, _ = run(capsys, "construct", family, *params)
    assert code == EXIT_OK
    m = parse(out)
    assert m.size == size


def test_construct_to_file_prints_summary(tmp_path, capsys):
    target = str(tmp_path / "c5.pts")
    code, out, _ = run(capsys, "construct", "circuit", "5", "-o", target)
    assert code == EXIT_OK
    assert "rank 4" in out and "5 points" in out
    assert read_matroid(target) == FamilySpec.of("circuit", 5).build()


def test_construct_domain_error_names_the_rule(capsys):
    code, _, err = run(capsys, "construct", "circuit", "4")
    assert code == EXIT_USAGE
    assert "odd" in err


def test_construct_wrong_arity(capsys):
    code, _, err = run(capsys, "construct", "pg")
    assert code == EXIT_USAGE
    assert "parameter" in err


def test_construct_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "fano", "3"])
    assert info.value.code == EXIT_USAGE


def test_analyze_human_readable(tmp_path, capsys):
    target = str(tmp_path / "c5.pts")
    assert main(["construct", "circuit", "5", "-o", target]) == EXIT_OK
    capsys.readouterr()
    code, out, _ = run(capsys, "analyze", target)
    assert code == EXIT_OK
    assert "critical number 2" in out
    assert "odd girth       5" in out
    assert "affine          no" in out


def test_analyze_json_matches_schema(tmp_path, capsys):
    sch = schema("analysis")
    for family, params, size in FAMILY_FIXTURES:
        target = str(tmp_path / f"{family}.pts")
        assert main(["construct", family, *params, "-o", target]) == EXIT_OK
        capsys.readouterr()
        code, out, _ = run(capsys, "analyze", target, "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, sch)
        assert report["size"] == size


def test_analyze_known_values(tmp_path, capsys):
    target = str(tmp_path / "ag6.pts")
    main(["construct", "ag", "6", "-o", target])
    capsys.readouterr()
    code, out, _ = run(capsys, "analyze", target, "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["odd_girth"] is None
    assert report["affine"] is True
    assert report["critical_number"] == 1
    assert report["size"] == 32


def test_analyze_empty_point_set(tmp_path, capsys):
    target = tmp_path / "empty.pts"
    target.write_text("rank 3\n")
    code, out, _ = run(capsys, "analyze", str(target), "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["size"] == 0 and report["critical_number"] == 0
    assert report["odd_girth"] is None and report["affine"] is True


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("rank 3\n001\n010\n100\n"))
    code, out, _ = run(capsys, "analyze", "-", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["size"] == 3


def test_analyze_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.pts"
    bad.write_text("rank 3\n001\n001\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == EXIT_USAGE
    assert "line 3" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/nowhere.pts")
    assert code == EXIT_USAGE
    assert err


def test_analysis_self_check_raises(monkeypatch):
    # is_affine contradicting odd girth and critical number is a library
    # bug; it must raise, even under python -O
    from gf2matroid import cli

    monkeypatch.setattr(cli, "is_affine", lambda m: not m.is_empty)
    with pytest.raises(RuntimeError, match="disagree"):
        cli.analysis_dict(parse("rank 3\n001\n010\n011\n"))


def test_analysis_max_pg_order_is_the_largest_flat():
    rng = random.Random(0x9F)
    sets = [
        random_matroid(rng, r, d)
        for r in range(2, 7)
        for d in (0.3, 0.6, 0.8, 0.95)
        for _ in range(3)
    ]
    sets += [pg(5), ag(5), circuit(5), extremal_odd_girth(5, 6), extremal_gs(3, 6)]
    sets += [bose_burton(6, c) for c in (1, 2, 3, 4)]
    for m in sets:
        orders = [n for n in range(1, m.ambient_rank + 1) if has_pg_restriction(m, n)]
        assert analysis_dict(m)["max_pg_order"] == max(orders, default=0)


def test_search_exhaustive_exit_zero(capsys):
    code, out, _ = run(
        capsys, "search", "-r", "4", "--min-odd-girth", "5", "--forbid-affine"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, schema("search"))
    assert report["optimum"] == 5
    assert report["exhaustive"] is True


def test_search_emit_witness(tmp_path, capsys):
    target = str(tmp_path / "witness.pts")
    code, out, _ = run(
        capsys,
        "search",
        "-r",
        "4",
        "--min-odd-girth",
        "5",
        "--forbid-affine",
        "--emit-witness",
        target,
    )
    assert code == EXIT_OK
    w = read_matroid(target)
    assert w.size == json.loads(out)["optimum"] == 5
    assert odd_girth(w) == 5


def test_search_complement_method(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "-r",
        "4",
        "--pg-free",
        "2",
        "--method",
        "complement",
        "--max-blocker",
        "15",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, schema("search"))
    assert report["optimum"] == 8
    assert report["method"] == "complement"


def test_search_budget_inconclusive_exit_two(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "-r",
        "6",
        "--min-odd-girth",
        "5",
        "--forbid-affine",
        "--budget",
        "1e-9",
    )
    assert code == EXIT_INCONCLUSIVE
    report = json.loads(out)
    jsonschema.validate(report, schema("search"))
    assert report["exhaustive"] is False


def test_search_rejects_a_negative_or_nan_budget(capsys):
    for budget in ("nan", "-1"):
        code, out, err = run(
            capsys, "search", "-r", "3", "--min-odd-girth", "5", "--budget", budget
        )
        assert code == EXIT_USAGE, budget
        assert out == "" and "budget" in err


def test_search_empty_constraints_rejected(capsys):
    code, _, err = run(capsys, "search", "-r", "4")
    assert code == EXIT_USAGE
    assert "constraint" in err


def test_search_blocker_flag_needs_complement_method(capsys):
    code, _, err = run(
        capsys, "search", "-r", "4", "--pg-free", "2", "--max-blocker", "5"
    )
    assert code == EXIT_USAGE
    assert "complement" in err


def test_search_forward_flags_need_forward_method(capsys):
    for flag in (["--threads", "2"], ["--no-prune"]):
        argv = ["search", "-r", "4", "--pg-free", "2", "--method", "complement"]
        code, _, err = run(capsys, *argv, *flag)
        assert code == EXIT_USAGE, flag
        assert "forward" in err


def test_search_threads_env(capsys, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "2")
    code, out, _ = run(
        capsys, "search", "-r", "4", "--min-odd-girth", "5", "--forbid-affine"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["threads"] == 2 and report["optimum"] == 5


def test_search_threads_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "0")
    code, _, err = run(
        capsys, "search", "-r", "4", "--min-odd-girth", "5", "--forbid-affine"
    )
    assert code == EXIT_USAGE
    assert THREADS_ENV in err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "main", "--k", "5", "--r", "4")
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, schema("verify"))
    assert report["passed"] is True and report["optimum"] == 5


def test_verify_hyphenated_theorem_name(capsys):
    code, out, _ = run(capsys, "verify", "bose-burton", "--n", "2", "--r", "4")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["theorem"] == "bose_burton" and report["optimum"] == 8


def test_verify_gs(capsys):
    code, out, _ = run(capsys, "verify", "gs", "--n", "2", "--r", "4")
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, schema("verify"))
    assert report["optimum"] == 5


def test_verify_budget_inconclusive_exit_two(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "main",
        "--k",
        "5",
        "--r",
        "6",
        "--deep",
        "--budget",
        "1e-9",
    )
    assert code == EXIT_INCONCLUSIVE
    report = json.loads(out)
    assert report["inconclusive"] is True and report["passed"] is False


def test_verify_violation_exit_one(capsys, monkeypatch):
    fake = VerifyReport(
        theorem="main",
        params={"k": 5, "r": 4},
        bound=5,
        optimum=6,
        construction_size=5,
        construction_ok=True,
        passed=False,
        inconclusive=False,
        nodes=1,
        wall_time=0.0,
    )
    monkeypatch.setattr("gf2matroid.cli.verify_theorem", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", "main", "--k", "5", "--r", "4")
    assert code == EXIT_VIOLATION
    assert json.loads(out)["passed"] is False


def test_verify_missing_parameter(capsys):
    code, _, err = run(capsys, "verify", "main", "--r", "4")
    assert code == EXIT_USAGE and "--k" in err
    code, _, err = run(capsys, "verify", "gs", "--r", "5")
    assert code == EXIT_USAGE and "--n" in err


def test_verify_deep_gate(capsys):
    code, _, err = run(capsys, "verify", "main", "--k", "5", "--r", "7")
    assert code == EXIT_USAGE
    assert "--deep" in err
    code, _, err = run(capsys, "verify", "gs", "--n", "3", "--r", "6")
    assert code == EXIT_USAGE
    assert "--deep" in err
    # main k=5 r=6 finishes in seconds, so it runs without --deep
    code, _, _ = run(
        capsys, "verify", "main", "--k", "5", "--r", "6", "--budget", "1e-9"
    )
    assert code == EXIT_INCONCLUSIVE


def test_usage_errors_exit_sixtyfour():
    for argv in [
        [],
        ["nope"],
        ["search"],
        ["verify", "main", "--k", "5"],
        ["construct", "circuit", "five"],
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE, argv


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
