"""The package surface: the exact public names, every one resolves, every
annotation resolves, the trace path loads neither the verify nor the bench
layer nor json, and no layer loads dataclasses or inspect."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import carrymul

SRC = Path(__file__).resolve().parent.parent / "src"

# modules only verify or bench need; a trace must not import them
VERIFY_AND_BENCH = ("carrymul.oracle", "carrymul.bench", "statistics", "fractions")
# stdlib modules that cost about half of `import carrymul`; no layer needs them
HEAVY = ("dataclasses", "inspect")
# the trace is written by hand; only reading a document or rendering a
# verify or bench report needs json
JSON = "json"

# the submodule of instrumented arithmetic, deleted once the kernels
# counted in closed form
RETIRED = "arith"
# every annotation the package writes evaluates at definition time, so no
# module needs `from __future__ import annotations`
FUTURE = "__future__"

CHILD = f"""
import contextlib, importlib.util, io, sys
import carrymul.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = carrymul.cli.run(["trace", "12", "34", "--format", "json"])
retired = "carrymul." + {RETIRED!r}
loaded = [
    m for m in {VERIFY_AND_BENCH + HEAVY + (FUTURE, JSON)!r} + (retired,)
    if m in sys.modules
]
submodules = [
    type(getattr(carrymul, m)).__name__ for m in ("oracle", "bench", "trace_io")
]
import json  # only now: the check above must see the trace path alone
print(json.dumps({{
    "code": code,
    "loaded": loaded,
    "submodules": submodules,
    "retired": importlib.util.find_spec(retired) is None,
}}))
"""

# what the benchmark harness imports
VERIFY_AND_BENCH_CHILD = f"""
import json, sys
import carrymul.oracle, carrymul.bench
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""


def run_child(code):
    """stdout of `code` run in a fresh interpreter that imports from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_trace_loads_neither_verify_nor_bench():
    """Asserts module names, not time: a fresh interpreter that runs one
    JSON trace must not have imported the oracle, bench, their stdlib
    needs, dataclasses, inspect, __future__, json or the retired arith
    module, which must not exist."""
    result = run_child(CHILD)
    assert result["code"] == 0
    assert result["loaded"] == []
    # the lazily loaded submodules are still attributes of the package
    assert result["submodules"] == ["module"] * 3
    assert result["retired"]


def test_verify_and_bench_load_neither_dataclasses_nor_inspect():
    assert run_child(VERIFY_AND_BENCH_CHILD) == []


def test_public_names_are_exactly_these():
    """Widening or narrowing the API is a declared change: edit this list."""
    assert carrymul.__all__ == [
        "ALGORITHMS",
        "BACKEND",
        "BenchReport",
        "INCREMENTAL",
        "MAX_BASE",
        "MIN_BASE",
        "Natural",
        "OpCounters",
        "SCHOOLBOOK",
        "SplitMix64",
        "StepRecord",
        "Trace",
        "VerifyReport",
        "available_backends",
        "check_invariant",
        "compare_algorithms",
        "errors",
        "exhaustive_check",
        "from_int",
        "incremental_multiply",
        "multiply",
        "oracle_multiply",
        "parse_natural",
        "random_check",
        "render_natural",
        "render_report_json",
        "render_report_text",
        "render_trace_json",
        "render_trace_text",
        "schoolbook_multiply",
        "to_int",
    ]


def test_every_public_name_resolves():
    for name in carrymul.__all__:
        assert getattr(carrymul, name) is not None, name
    namespace = {}
    exec("from carrymul import *", namespace)
    assert set(carrymul.__all__) <= namespace.keys()
    assert carrymul.random_check is carrymul.oracle.random_check
    assert carrymul.BenchReport is carrymul.bench.BenchReport
    assert carrymul.render_trace_json is carrymul.trace_io.render_trace_json


def test_report_renderers_load_from_the_oracle():
    assert carrymul.render_report_json is carrymul.oracle.render_report_json
    assert carrymul.render_report_text is carrymul.oracle.render_report_text


def test_every_annotation_resolves():
    """typing.get_type_hints evaluates each string annotation in its module,
    so a name that a module annotates with but never imports fails here."""
    modules = [carrymul] + [
        importlib.import_module(f"carrymul.{info.name}")
        for info in pkgutil.iter_modules(carrymul.__path__)
    ]
    checked = 0
    for module in modules:
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if isinstance(value, type) else [value]
            for func in members:
                if isinstance(func, types.FunctionType):
                    typing.get_type_hints(func)
                    checked += 1
    assert checked > 50


def test_dir_lists_every_public_name():
    assert set(carrymul.__all__) <= set(dir(carrymul))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        carrymul.no_such_name
