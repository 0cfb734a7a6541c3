"""Command line front end: subcommands, exit codes, JSON schemas."""

import io
import json
import os
import random
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import gf2matroid
from gf2matroid import (
    ag,
    bose_burton,
    build_family,
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
    assert read_matroid(target) == build_family("circuit", 5)


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
    from gf2matroid import cli, matroid

    with monkeypatch.context() as patch:
        patch.setattr(cli, "is_affine", lambda m: not m.is_empty)
        with pytest.raises(RuntimeError, match="disagree"):
            cli.analysis_dict(parse("rank 3\n001\n010\n011\n"))
    # critical_number caps its search with matroid.is_affine: a lie there
    # yields a valid 2-cover of ag(4), and odd girth still disagrees
    monkeypatch.setattr(matroid, "is_affine", lambda m: False)
    assert matroid.critical_number(ag(4))[0] == 2
    with pytest.raises(RuntimeError, match="disagree"):
        cli.analysis_dict(ag(4))


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


def test_search_picks_the_engine_itself(capsys):
    argv = ["search", "-r", "5", "--min-odd-girth", "5", "--min-critical", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["method"] == "complement"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--method", "complement"])
    assert info.value.code == EXIT_USAGE
    assert "unrecognized arguments: --method" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["search", "--help"])
    out = capsys.readouterr().out
    assert info.value.code == EXIT_OK and "--max-blocker" in out
    assert "--method" not in out


def test_search_complement_refuses_order_one_freeness(capsys):
    # order 1 admits only the empty set; a line family must not hide it
    for girth in ([], ["--min-odd-girth", "5"]):
        argv = ["search", "-r", "4", "--pg-free", "1", "--max-blocker", "15"]
        code, out, err = run(capsys, *argv, *girth)
        assert code == EXIT_USAGE, girth
        assert out == "" and "order 1" in err


def test_search_complement_proves_an_infeasible_demand(capsys):
    # critical number 2 at rank 1 leaves no flat to forbid; no set is valid
    for argv in (
        ["-r", "5", "--pg-free", "2", "--min-critical", "3", "--max-blocker", "31"],
        ["-r", "1", "--min-odd-girth", "5", "--forbid-affine", "--max-blocker", "1"],
    ):
        code, out, _ = run(capsys, "search", *argv)
        assert code == EXIT_OK, argv
        report = json.loads(out)
        jsonschema.validate(report, schema("search"))
        assert report["exhaustive"] and report["optimum"] == 0
        assert report["witness"] is None


def test_search_forward_flags_need_forward_method(capsys):
    for flag in (["--threads", "2"], ["--no-prune"]):
        argv = ["search", "-r", "4", "--pg-free", "2", "--max-blocker", "15"]
        code, _, err = run(capsys, *argv, *flag)
        assert code == EXIT_USAGE, flag
        assert "forward" in err


def test_search_threads_must_be_positive(capsys):
    argv = ["search", "-r", "4", "--min-odd-girth", "5", "--forbid-affine"]
    code, out, err = run(capsys, *argv, "--threads", "0")
    assert code == EXIT_USAGE
    assert out == "" and "threads" in err
    code, out, _ = run(capsys, *argv, "--threads", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["threads"] == 2 and report["optimum"] == 5


def test_verify_complement_theorems_refuse_threads(capsys):
    # bose_burton and gs run the complement engine in one process
    for theorem in ("gs", "bose_burton"):
        argv = ["verify", theorem, "--n", "2", "--r", "5", "--threads", "2"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, theorem
        assert out == "" and "threads" in err
    code, _, _ = run(capsys, "verify", "gs", "--n", "2", "--r", "5", "--threads", "1")
    assert code == EXIT_OK


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
    # a parameter the theorem does not take is refused, not dropped
    code, _, err = run(capsys, "verify", "gs", "--n", "3", "--r", "5", "--k", "7")
    assert code == EXIT_USAGE and "--k" in err
    code, _, err = run(capsys, "verify", "main", "--k", "5", "--r", "4", "--n", "3")
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
    # so do line blocking with the basis forced (bose_burton n=2 up to
    # r=7, gs n=2 at r=6) and gs n=4 r=6, each in under 0.1 s
    for theorem, n, r in (
        ("bose_burton", 2, 6),
        ("bose_burton", 2, 7),
        ("gs", 2, 6),
        ("gs", 4, 6),
    ):
        argv = ["verify", theorem, "--n", str(n), "--r", str(r)]
        code, _, _ = run(capsys, *argv, "--budget", "1e-9")
        assert code == EXIT_INCONCLUSIVE, (theorem, n, r)
    for theorem, n, r in (("bose_burton", 2, 8), ("gs", 2, 7)):
        code, _, err = run(capsys, "verify", theorem, "--n", str(n), "--r", str(r))
        assert code == EXIT_USAGE, (theorem, n, r)
        assert "--deep" in err
    # n >= r - 2 runs without --deep up to r = 10, and n >= r - 1 up
    # to r = 12; its witness is certified flat-free by its critical number
    code, _, _ = run(capsys, "verify", "bose_burton", "--n", "6", "--r", "7")
    assert code == EXIT_OK
    for n, r in ((8, 10), (10, 11), (11, 12)):
        argv = ["verify", "bose_burton", "--n", str(n), "--r", str(r)]
        code, _, _ = run(capsys, *argv, "--budget", "1e-9")
        assert code == EXIT_INCONCLUSIVE, (n, r)
    for n, r in ((4, 7), (6, 9), (9, 11), (12, 13), (19, 20)):
        code, _, err = run(
            capsys, "verify", "bose_burton", "--n", str(n), "--r", str(r)
        )
        assert code == EXIT_USAGE, (n, r)
        assert "--deep" in err


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


def test_version_does_not_import_the_process_pool():
    # the pool loads on first use, so a plain CLI start never pays for it
    src = Path(gf2matroid.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gf2matroid", "--version"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "gf2matroid.search" in imported
    assert "concurrent.futures.process" not in imported
