"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
Criteria 2, 3 and 4 run on the active backend and again, as their
``_compiled`` twins, on the compiled kernels.

Every tolerance is exact (these are integer algorithms); the only timing
assertion is the sub-millisecond bound on the worked example.
"""

import time
from pathlib import Path

from carrymul import kernels
from carrymul.algorithms import (
    INCREMENTAL,
    SCHOOLBOOK,
    check_invariant,
    incremental_multiply,
    schoolbook_multiply,
)
from carrymul.bench import compare_algorithms
from carrymul.cli import run
from carrymul.digits import from_int, parse_natural, render_natural, to_int
from carrymul.oracle import (
    SplitMix64,
    exhaustive_check,
    oracle_multiply,
    random_check,
    render_report_json,
)
from carrymul.trace_io import dumps_canonical, parse_trace_document, render_trace_json

GOLDEN = Path(__file__).parent / "golden"


def report(num, description, passed):
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_1_golden_trace():
    a = parse_natural("1234", 10)
    b = parse_natural("567", 10)
    best = min(
        _timed(lambda: incremental_multiply(a, b))[0] for _ in range(5)
    )
    trace = incremental_multiply(a, b)
    triples = [(str(s.s), s.r, str(s.c_next)) for s in trace.steps]
    ok = (
        triples == [("8638", 8, "863"), ("8267", 7, "826"), ("6996", 6, "699")]
        and str(trace.result) == "699678"
        and best < 1e-3
    )
    report(1, f"golden trace exact, runtime {best * 1e6:.1f} us < 1 ms", ok)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def test_criterion_2_exhaustive_desk_scale():
    rep = exhaustive_check(1000, 10)
    ok = (
        rep.pairs_checked == 1_000_000
        and not rep.mismatches
        and not rep.invariant_failures
    )
    report(
        2,
        f"10^6 pairs: all routes equal, invariant all-true ({rep.elapsed_s:.1f}s)",
        ok,
    )


def test_criterion_3_base_extension():
    failures = []
    for base in (2, 3, 8, 10, 16, 36):
        rep = exhaustive_check(100, base)
        if not rep.ok() or rep.pairs_checked != 10_000:
            failures.append(base)
    report(3, "exhaustive limit=100 clean in bases 2,3,8,10,16,36", not failures)


def test_criterion_4_random_large_operands_reproducible():
    rep1 = random_check(10_000, 64, range(2, 37), seed=2024)
    rep2 = random_check(10_000, 64, range(2, 37), seed=2024)
    ok = (
        rep1.pairs_checked == 10_000
        and rep1.ok()
        and render_report_json(rep1) == render_report_json(rep2)
    )
    report(
        4,
        "10^4 seeded 64-digit trials clean and byte-reproducible "
        f"({rep1.elapsed_s:.1f}s)",
        ok,
    )


def on_compiled_kernels(criterion):
    """The criterion run again on the compiled kernels, through the same
    kernels.impl swap the backend tests use; it skips only where the
    compiled_kernels fixture does, with no C compiler."""

    def test(compiled_kernels, monkeypatch):
        monkeypatch.setattr(kernels, "impl", compiled_kernels)
        criterion()

    return test


test_criterion_2_exhaustive_desk_scale_compiled = on_compiled_kernels(
    test_criterion_2_exhaustive_desk_scale
)
test_criterion_3_base_extension_compiled = on_compiled_kernels(test_criterion_3_base_extension)
test_criterion_4_random_large_operands_reproducible_compiled = on_compiled_kernels(
    test_criterion_4_random_large_operands_reproducible
)


def test_criterion_5_mult_count_identity():
    rng = SplitMix64(5)
    ok = True
    for _ in range(100):
        base = 2 + rng.bounded(35)
        la = 1 + rng.bounded(32)
        lb = 1 + rng.bounded(32)
        a = _draw(rng, base, la)
        b = _draw(rng, base, lb)
        inc = incremental_multiply(a, b)
        sch = schoolbook_multiply(a, b)
        if not (inc.counters.digit_mults == sch.counters.digit_mults == la * lb):
            ok = False
            break
    report(5, "digit_mults(incremental) = digit_mults(schoolbook) = len*len", ok)


def _draw(rng, base, length):
    digits = [rng.bounded(base) for _ in range(length - 1)]
    digits.append(1 + rng.bounded(base - 1))
    from carrymul.digits import Natural

    return Natural(tuple(digits), base)


def test_criterion_6_memory_proxy_metric():
    rng = SplitMix64(6)
    ok = True
    pairs = [(parse_natural("1234", 10), parse_natural("567", 10))]
    for _ in range(50):
        base = 2 + rng.bounded(35)
        pairs.append((_draw(rng, base, 1 + rng.bounded(16)), _draw(rng, base, 2 + rng.bounded(15))))
    for a, b in pairs:
        if len(b.digits) < 2:
            continue
        rep = compare_algorithms(a, b)
        if not (rep.retained[INCREMENTAL] == 2 < rep.retained[SCHOOLBOOK] == len(b.digits) + 1):
            ok = False
            break
    report(6, "retained vectors: incremental 2 < schoolbook len(b)+1", ok)


def test_criterion_7_degenerate_inputs():
    ok = True
    for base in (2, 10, 16, 36):
        zero, one = from_int(0, base), from_int(1, base)
        specials = [from_int(v, base) for v in (0, 1, 2, base - 1, base, base * base + 1)]
        cases = (
            [(a, zero) for a in specials]
            + [(zero, b) for b in specials]
            + [(a, one) for a in specials]
            + [(one, b) for b in specials]
            + [(from_int(x, base), from_int(y, base)) for x in range(base) for y in range(base)]
        )
        for a, b in cases:
            trace = incremental_multiply(a, b)
            expected = oracle_multiply(a, b)
            if trace.result != expected:
                ok = False
            if schoolbook_multiply(a, b).result != expected:
                ok = False
            if to_int(expected) == 0 and render_natural(trace.result) != "0":
                ok = False
            for step in trace.steps:
                if step.s.digits and step.s.digits[-1] == 0:
                    ok = False
                if step.c_next.digits and step.c_next.digits[-1] == 0:
                    ok = False
            if not all(check_invariant(trace)):
                ok = False
    report(7, "degenerate products match oracle; traces stay canonical", ok)


def test_criterion_8_serialization_stability(capsys):
    golden = (GOLDEN / "trace_1234x567.json").read_text()
    round_trip = dumps_canonical(parse_trace_document(golden))
    exit_code = run(["trace", "1234", "567", "--format", "json"])
    cli_output = capsys.readouterr().out
    fresh = render_trace_json(
        incremental_multiply(parse_natural("1234", 10), parse_natural("567", 10))
    )
    ok = (
        round_trip == golden
        and exit_code == 0
        and cli_output == golden
        and fresh == golden
    )
    with capsys.disabled():
        report(8, "golden TraceDocument byte-stable across round trip and CLI", ok)


def test_backend_note():
    # not a criterion: records which kernels the suite exercised
    print(f"kernel backend under test: {kernels.BACKEND}")
