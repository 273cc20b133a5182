"""Shared fixtures.

``compiled_kernels`` builds ``carrymul._speedups`` from setup.py's own
``EXTENSION`` into a pytest temporary directory and loads it from there, so
the compiled cross-checks run wherever a C compiler exists, whether or not
the extension was built in place.  Nothing is written under ``src/``.
With gcc or clang it compiles with ``-Wall -Werror``, so a new warning in
the C file fails the suite.
"""

import importlib.util
import os
import runpy
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest
from setuptools import Distribution
from setuptools.command.build_ext import build_ext

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler: {cc!r} is not on PATH")
    ext = runpy.run_path(str(ROOT / "setup.py"), run_name="setup")["EXTENSION"]
    ext.sources = [str(ROOT / source) for source in ext.sources]
    if any(name in Path(shlex.split(cc)[0]).name for name in ("gcc", "clang")):
        ext.extra_compile_args = ["-Wall", "-Werror"]
    out = tmp_path_factory.mktemp("speedups")
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(out / "lib")
    cmd.build_temp = str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
