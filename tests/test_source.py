"""Rules the package source keeps."""

import ast
import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gf2matroid"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # self-checks raise, so they still run under python -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


def test_kernels_c_compiles_without_warnings():
    # catches, among others, the variables a refactor leaves unused and
    # the loop locals that shadow outer ones
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    include = sysconfig.get_paths()["include"]
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-Wshadow", "-Wvla", "-Wundef"]
    flags += ["-std=c99", f"-I{include}"]
    done = subprocess.run(
        [*cc, *flags, str(PACKAGE / "_kernels.c")], capture_output=True, text=True
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
