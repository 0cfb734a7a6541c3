"""Search-kernel backend selection.

The compiled extension gf2matroid._kernels is used when importable;
otherwise the pure-Python twin takes over.  Set GF2MATROID_KERNEL to
"c" or "python" to force a choice (forcing "c" raises if the extension
was not built).
"""

from __future__ import annotations

import os

_ENV = "GF2MATROID_KERNEL"


def load_kernels(name: str):
    """Import a kernel module by backend name ("c" or "python")."""
    if name == "python":
        from . import _kernels_py

        return _kernels_py
    if name == "c":
        from . import _kernels  # type: ignore[attr-defined]

        return _kernels
    raise ValueError(f"unknown kernel backend {name!r}")


def _select():
    forced = os.environ.get(_ENV, "").strip().lower()
    if forced:
        return load_kernels(forced)
    try:
        return load_kernels("c")
    except ImportError:
        return load_kernels("python")


kernels = _select()


def backend_name() -> str:
    """Name of the active kernel backend: "c" or "python"."""
    return kernels.BACKEND_NAME
