"""Build script: compiles the optional C search kernels.

src/gf2matroid/_kernels.c is plain C; setuptools and a C compiler build
it, no Cython involved:

    python setup.py build_ext --inplace

The package is fully functional without the extension; gf2matroid._backend
falls back to the pure-Python kernels at import time.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the extension if possible, warn and continue otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, broken toolchain, ...
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import warnings

        warnings.warn(
            "gf2matroid: compiled kernels unavailable (%s); "
            "falling back to pure-Python kernels" % (exc,)
        )


setup(
    ext_modules=[
        Extension(
            "gf2matroid._kernels",
            ["src/gf2matroid/_kernels.c"],
            extra_compile_args=["-O3"],
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
