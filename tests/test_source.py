"""Rules the package source keeps."""

import ast
import os
import re
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from gf2matroid import _kernels_py

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gf2matroid"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # self-checks raise, so they still run under python -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


def test_kernels_declare_the_same_flat_table_cap():
    # the forward twins must skip the flat-coverage bound on the same
    # searches, or their node counts part
    found = re.findall(
        r"^#define FLAT_TABLE_MAX (.+)$", (PACKAGE / "_kernels.c").read_text(), re.M
    )
    assert len(found) == 1, found
    expr = found[0].strip()
    # digits, shifts and arithmetic read the same in C and Python
    assert re.fullmatch(r"[\d\s()<*+-]+", expr), expr
    assert eval(expr) == _kernels_py._FLAT_TABLE_MAX


def test_kernels_c_compiles_without_warnings():
    # catches, among others, the variables a refactor leaves unused
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    include = sysconfig.get_paths()["include"]
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-std=c99", f"-I{include}"]
    done = subprocess.run(
        [*cc, *flags, str(PACKAGE / "_kernels.c")], capture_output=True, text=True
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
