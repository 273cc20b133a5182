"""Builds the optional compiled kernel extension.

``carrymul._speedups`` is one hand-written C file against the CPython API,
built by any C compiler; no code generator is involved.  The package is
fully functional without it (carrymul.kernels falls back to the pure-Python
backend), so a missing compiler only costs speed.

``EXTENSION`` is importable without running ``setup()``, so the test suite
builds the same extension this script does.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

EXTENSION = Extension("carrymul._speedups", ["src/carrymul/_speedups.c"])


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing; wheel still works
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"warning: building carrymul._speedups failed ({exc}); "
            "falling back to the pure-Python kernels",
            file=sys.stderr,
        )


if __name__ == "__main__":
    setup(ext_modules=[EXTENSION], cmdclass={"build_ext": optional_build_ext})
