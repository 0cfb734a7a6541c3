"""Rules the package source keeps."""

import ast
import os
import shlex
import shutil
import subprocess
import sys
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


SANITIZED_LOCKSTEP = """
import importlib.util
import sys

from gf2matroid import _kernels_py as pure
from gf2matroid.gf2 import subspace_masks
from gf2matroid.search import _forced_basis

spec = importlib.util.spec_from_file_location("gf2matroid._kernels", sys.argv[1])
kern = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kern)
calls = []
for r, n in ((4, 2), (4, 3), (5, 2)):
    family = list(subspace_masks(r, n))
    for t in (0, 2, 3):
        for sym in (True, False):
            calls.append(("complement_search", (r, family, t, False, (1 << r) - 1, None, sym)))
calls.append(("complement_search", (5, list(subspace_masks(5, 2)), 4, False, 21, 1e-9, True)))
calls.append(("forward_search", (5, 5, 0, 2, False, _forced_basis(5), 0, None, True)))
for name, args in calls:
    got, want = getattr(kern, name)(*args), getattr(pure, name)(*args)
    if got != want:
        sys.exit(f"{name}{args[:1] + args[2:]}: {got} != {want}")
print(len(calls))
"""


def test_kernels_c_is_clean_under_sanitizers(tmp_path):
    # AddressSanitizer and UndefinedBehaviorSanitizer watch the C twin's
    # slabs and counters while it replays the pure twin, out of src/
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    runtimes = {}
    for lib in ("libasan.so", "libubsan.so"):
        found = subprocess.run(
            [*cc, f"-print-file-name={lib}"], capture_output=True, text=True
        ).stdout.strip()
        if not os.path.isabs(found) or not os.path.exists(found):
            pytest.skip(f"the compiler ships no {lib}")
        runtimes[lib] = found
    module = tmp_path / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    flags = ["-shared", "-fPIC", "-O1", "-g", "-fno-omit-frame-pointer", "-std=c99"]
    flags += ["-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    flags += [f"-I{sysconfig.get_paths()['include']}"]
    built = subprocess.run(
        [*cc, *flags, str(PACKAGE / "_kernels.c"), "-o", str(module)],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0")
    env["LD_PRELOAD"] = runtimes["libasan.so"]
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", SANITIZED_LOCKSTEP, str(module)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "20", done.stdout
