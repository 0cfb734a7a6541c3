"""Build the C kernel extension before any test module imports gf2matroid.

setup.py is the one place that knows the compile flags, so the session
runs `setup.py build_ext --inplace --force`.  Without --force,
setuptools skips the compile whenever `build/` holds a module newer
than `_kernels.c`, as in a copied checkout, and the session would test
that stale module.  On a machine without a C compiler the lockstep
tests skip.  With one, a build that leaves no module newer than the
source (setup.py only warns when the compile fails, and would leave a
stale binary in place) or a module that does not import ends the
session with the compiler output.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gf2matroid"


def _compiler_on_path() -> bool:
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0]) is not None


def pytest_configure(config):
    if not _compiler_on_path():
        return
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    source = PACKAGE / "_kernels.c"
    built = PACKAGE / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    from gf2matroid._backend import load_kernels

    problem = None
    if build.returncode != 0:
        problem = f"setup.py exited with code {build.returncode}"
    elif not built.exists() or built.stat().st_mtime < source.stat().st_mtime:
        problem = f"{built.name} was not rebuilt from {source.name}"
    else:
        try:
            load_kernels("c")
        except ImportError as exc:
            problem = f"the built module does not import: {exc}"
    if problem is not None:
        pytest.exit(
            f"C kernel extension unusable ({problem}); build output:\n"
            f"{build.stdout}\n{build.stderr}",
            returncode=pytest.ExitCode.INTERNAL_ERROR,
        )
