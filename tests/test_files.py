"""Point set file format: round trips and parse diagnostics."""

import random

import pytest

from gf2matroid import (
    BinaryMatroid,
    MatroidFileError,
    build_family,
    parse,
    read_matroid,
    render,
    write_matroid,
)
from helpers import or_loop, random_matroid

rng = random.Random(0xF11E)


def test_render_parse_round_trip_random():
    for _ in range(60):
        m = random_matroid(rng, rng.randrange(1, 7))
        assert parse(render(m)) == m


def test_render_parse_round_trip_families():
    for name, values in [
        ("pg", (4,)),
        ("ag", (5,)),
        ("bose-burton", (5, 3)),
        ("circuit", (7,)),
        ("extremal-odd-girth", (5, 6)),
        ("extremal-gs", (3, 5)),
    ]:
        m = build_family(name, *values)
        assert parse(render(m, comment=name)) == m


def test_parse_matches_the_or_loop():
    for r, n in [(3, 5), (7, 100), (12, 3000), (20, 524320)]:
        pts = rng.sample(range(1, 1 << r), n)
        text = f"rank {r}\n" + "\n".join(format(v, f"0{r}b") for v in pts) + "\n"
        m = parse(text)
        assert m.ambient_rank == r and m.points == or_loop(pts)


def test_render_layout():
    m = BinaryMatroid.from_vectors(3, [6, 1, 5])
    text = render(m, comment="three points")
    lines = text.splitlines()
    assert lines[0] == "# three points"
    assert lines[1] == "rank 3"
    assert lines[2:] == ["001", "101", "110"]  # ascending encodings
    assert text.endswith("\n")


def test_parse_accepts_comments_and_blanks():
    m = parse("# header comment\n\nrank 3\n001\n\n# midway\n010\n")
    assert m == BinaryMatroid.from_vectors(3, [1, 2])


def test_parse_empty_point_set():
    m = parse("rank 4\n")
    assert m.ambient_rank == 4 and m.is_empty


def test_file_io_round_trip(tmp_path):
    m = build_family("bose-burton", 4, 2)
    path = tmp_path / "bb.pts"
    write_matroid(str(path), m, comment="fixture")
    assert read_matroid(str(path)) == m


def parse_error(text):
    with pytest.raises(MatroidFileError) as info:
        parse(text)
    return info.value


def test_parse_errors_carry_line_numbers():
    e = parse_error("")
    assert "rank" in str(e)

    e = parse_error("rango 3\n001\n")
    assert e.lineno == 1

    e = parse_error("rank three\n")
    assert e.lineno == 1 and "integer" in str(e)

    e = parse_error("rank 0\n")
    assert e.lineno == 1

    e = parse_error("rank 99\n")
    assert e.lineno == 1

    e = parse_error("rank 3\n0010\n")
    assert e.lineno == 2

    e = parse_error("rank 3\n# fine\n01x\n")
    assert e.lineno == 3

    e = parse_error("rank 3\n000\n")
    assert e.lineno == 2 and "zero" in str(e)

    e = parse_error("rank 3\n011\n\n011\n")
    assert e.lineno == 4 and "duplicate" in str(e)

    rows = [format(v, "012b") for v in range(1, 4000)]
    e = parse_error("rank 12\n" + "\n".join(rows + [rows[1234]]) + "\n")
    assert e.lineno == 4001 and "duplicate" in str(e)


def test_parse_rejects_second_header():
    e = parse_error("rank 3\nrank 3\n")
    assert e.lineno == 2


def test_error_message_includes_line_number():
    e = parse_error("rank 2\n11\n3\n")
    assert "line 3" in str(e)
