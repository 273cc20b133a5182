import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from carrymul import _kernels_py, kernels
from carrymul.algorithms import OpCounters
from carrymul.bench import BenchReport
from carrymul.cli import run

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_mul_worked_example(capsys):
    assert run(["mul", "1234", "567"]) == 0
    out, err = capsys.readouterr()
    assert out == "699678\n"
    assert err == ""


def test_mul_hex(capsys):
    assert run(["mul", "ff", "ff", "--base", "16"]) == 0
    assert capsys.readouterr().out == "fe01\n"


def test_mul_schoolbook_algo(capsys):
    assert run(["mul", "1234", "567", "--algo", "schoolbook"]) == 0
    assert capsys.readouterr().out == "699678\n"


def test_trace_text(capsys):
    assert run(["trace", "1234", "567"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "trace_1234x567.txt").read_text()


def test_trace_json_matches_golden(capsys):
    assert run(["trace", "1234", "567", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "trace_1234x567.json").read_text()


def test_trace_schoolbook_json(capsys):
    assert run(["trace", "12", "34", "--algo", "schoolbook", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algorithm"] == "schoolbook"
    assert "rows" in doc


def traced_run(argv):
    """(tracemalloc peak, stdout) of one in-process run, with stdout kept in
    a StringIO as the benchmark's memory probe keeps it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_trace_json_holds_no_whole_trace(backend, fmt, request, monkeypatch):
    """A 256x256 base-10 trace, run in process as the benchmark's memory
    probe runs it, peaks under a quarter of the 2153 KiB that building the
    whole Trace, a document dict and one JSON string took: the kernel
    yields one step at a time and only the rendered fragments are kept.
    The compiled kernel's iterator peaks within 1.2x of the pure-Python
    generator in each format (its step list took 4x), with the same
    bytes."""
    monkeypatch.setattr(kernels, "impl", _kernels_py)
    rng = random.Random(256)
    a, b = (str(rng.randrange(10**255, 10**256)) for _ in range(2))
    argv = ["trace", a, b, "--format", fmt]
    peak, out = traced_run(argv)
    assert len(out) > 130_000
    assert peak <= 538 * 1024
    if backend == "compiled":
        monkeypatch.setattr(kernels, "impl", request.getfixturevalue("compiled_kernels"))
        compiled_peak, compiled_out = traced_run(argv)
        assert compiled_out == out
        assert compiled_peak <= 1.2 * peak


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_1_without_a_traceback(fmt):
    """`carrymul trace ... | head -c 10`: the reader closes the pipe after
    ten bytes of a ~3 MB trace, far more than a pipe buffer holds, so the
    writer always meets the closed pipe.  Both formats exit 1 with nothing
    on stderr, rather than a BrokenPipeError traceback or a silent exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    operand = "7" * 1000
    argv = [sys.executable, "-m", "carrymul.cli", "trace", operand, operand, "--format", fmt]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_verify_exhaustive(capsys):
    assert run(["verify", "--limit", "20"]) == 0
    out = capsys.readouterr().out
    assert "pairs checked: 400" in out
    assert "status: OK" in out


def test_verify_exhaustive_json(capsys):
    assert run(["verify", "--limit", "5", "--base", "16", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairs_checked"] == 25
    assert doc["params"]["base"] == 16


def test_verify_random(capsys):
    assert run(["verify", "--random", "--trials", "25", "--max-digits", "6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "pairs checked: 25" in out


def test_verify_needs_exactly_one_mode(capsys):
    assert run(["verify"]) == 1
    assert run(["verify", "--limit", "5", "--random"]) == 1
    _, err = capsys.readouterr()
    assert "verify needs exactly one of" in err


def test_verify_random_rejects_base_flag(capsys):
    assert run(["verify", "--random", "--trials", "2", "--base", "12"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--limit mode only" in err


@pytest.mark.parametrize(
    "flag, value", [("--seed", "5"), ("--trials", "7"), ("--max-digits", "0")]
)
def test_verify_limit_rejects_random_flags(capsys, flag, value):
    """--limit mode used to ignore these, even an invalid --max-digits 0."""
    assert run(["verify", "--limit", "3", flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"carrymul: {flag} applies to --random mode only\n"


def test_verify_mismatch_exits_2(capsys, monkeypatch):
    real = kernels.impl

    class Stub:
        def __getattr__(self, name):
            return getattr(real, name)

        @staticmethod
        def incremental_product(a, b, base):
            if a == [3] and b == [3]:
                return [8]
            return real.incremental_product(a, b, base)

    monkeypatch.setattr(kernels, "impl", Stub())
    assert run(["verify", "--limit", "4"]) == 2
    out = capsys.readouterr().out
    assert "status: FAIL" in out
    assert "mismatches: 1" in out


def test_bench_text(capsys):
    assert run(["bench", "1234", "567", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "digit_mults" in out
    assert "incremental" in out and "schoolbook" in out


def test_bench_json(capsys):
    assert run(["bench", "1234", "567", "--reps", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counters"]["schoolbook"]["digit_mults"] == 12


def test_bench_json_keys_are_the_report_fields(capsys):
    assert run(["bench", "1234", "567", "--reps", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"schema_version", *BenchReport.__slots__}
    assert set(doc["counters"]["incremental"]) == set(OpCounters.__slots__)


def test_usage_error_exit_1(capsys):
    assert run([]) == 1
    assert run(["mul", "1"]) == 1
    assert run(["frobnicate"]) == 1
    out, _ = capsys.readouterr()
    assert out == ""  # diagnostics never land on stdout


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "mul" in capsys.readouterr().out


def test_operand_parse_error(capsys):
    assert run(["mul", "12x", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid digit" in err


def test_bad_base_error(capsys):
    assert run(["mul", "1", "2", "--base", "99"]) == 1
    _, err = capsys.readouterr()
    assert "base" in err


def test_operand_invalid_for_base(capsys):
    assert run(["mul", "19", "1", "--base", "8"]) == 1
    _, err = capsys.readouterr()
    assert "position" in err
