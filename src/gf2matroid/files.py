"""Plain-text point set files.

Layout: optional comment lines starting with '#', then a header line
'rank <r>', then one point per line as an r-character 0/1 string with
the first character carrying coordinate 1 (the numerically highest
bit).  Blank lines and trailing comments on their own lines are
ignored.  Parse errors carry 1-based line numbers.
"""

from __future__ import annotations

import io
from typing import Iterable, TextIO, Union

from .gf2 import POINTSET_RANK_MAX, mask_from
from .matroid import BinaryMatroid

__all__ = ["MatroidFileError", "parse", "render", "read_matroid", "write_matroid"]


class MatroidFileError(ValueError):
    """Malformed point set file; str() includes the offending line."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _meaningful(lines: Iterable[str]):
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def parse(text: Union[str, TextIO]) -> BinaryMatroid:
    if isinstance(text, str):
        text = io.StringIO(text)
    rows = _meaningful(text)
    try:
        lineno, header = next(rows)
    except StopIteration:
        raise MatroidFileError(0, "missing 'rank <r>' header") from None
    parts = header.split()
    if len(parts) != 2 or parts[0] != "rank":
        raise MatroidFileError(lineno, f"expected 'rank <r>' header, got {header!r}")
    try:
        r = int(parts[1])
    except ValueError:
        raise MatroidFileError(lineno, f"rank is not an integer: {parts[1]!r}") from None
    if not 1 <= r <= POINTSET_RANK_MAX:
        raise MatroidFileError(
            lineno, f"rank must be in [1, {POINTSET_RANK_MAX}], got {r}"
        )
    seen = set()
    for lineno, line in rows:
        if len(line) != r:
            raise MatroidFileError(
                lineno, f"point has {len(line)} characters, expected {r}"
            )
        if set(line) - {"0", "1"}:
            raise MatroidFileError(lineno, f"point is not a 0/1 string: {line!r}")
        v = int(line, 2)
        if v == 0:
            raise MatroidFileError(lineno, "zero vector is not a point")
        if v in seen:
            raise MatroidFileError(lineno, f"duplicate point {line}")
        seen.add(v)
    return BinaryMatroid(r, mask_from(seen))


def render(m: BinaryMatroid, comment: str = "") -> str:
    out = []
    for line in comment.splitlines():
        out.append(f"# {line}".rstrip())
    out.append(f"rank {m.ambient_rank}")
    for v in m.point_list():
        out.append(format(v, f"0{m.ambient_rank}b"))
    return "\n".join(out) + "\n"


def read_matroid(path: str) -> BinaryMatroid:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh)


def write_matroid(path: str, m: BinaryMatroid, comment: str = "") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render(m, comment))
