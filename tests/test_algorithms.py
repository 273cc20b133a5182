import random
import sys
import tracemalloc

import pytest

from carrymul import _kernels_py, errors, kernels
from carrymul.algorithms import (
    INCREMENTAL,
    SCHOOLBOOK,
    StepRecord,
    Trace,
    check_invariant,
    incremental_multiply,
    multiply,
    schoolbook_multiply,
)
from carrymul.digits import from_int, parse_natural, to_int
from carrymul.oracle import _check_pair


def n(text, base=10):
    return parse_natural(text, base)


def step_triples(trace):
    return [(str(s.s), s.r, str(s.c_next)) for s in trace.steps]


def test_incremental_worked_example():
    trace = incremental_multiply(n("1234"), n("567"))
    assert step_triples(trace) == [
        ("8638", 8, "863"),
        ("8267", 7, "826"),
        ("6996", 6, "699"),
    ]
    assert str(trace.result) == "699678"
    assert [s.k for s in trace.steps] == [0, 1, 2]


def test_incremental_zero_multiplier():
    trace = incremental_multiply(n("1234"), n("0"))
    assert trace.steps == ()
    assert str(trace.result) == "0"


def test_incremental_zero_multiplicand_runs_every_step():
    trace = incremental_multiply(n("0"), n("567"))
    assert step_triples(trace) == [("0", 0, "0")] * 3
    assert str(trace.result) == "0"


def test_incremental_162_squared():
    trace = incremental_multiply(n("162"), n("162"))
    assert step_triples(trace) == [
        ("324", 4, "32"),
        ("1004", 4, "100"),
        ("262", 2, "26"),
    ]
    assert str(trace.result) == "26244"


def test_incremental_step_count_matches_multiplier_length():
    for a in ("5", "99", "12345"):
        for b in ("7", "30", "4096"):
            trace = incremental_multiply(n(a), n(b))
            assert len(trace.steps) == len(b)


def test_schoolbook_worked_example():
    trace = schoolbook_multiply(n("1234"), n("567"))
    assert [str(row) for row in trace.rows] == ["8638", "74040", "617000"]
    assert str(trace.result) == "699678"


def test_schoolbook_single_digit_multiplier_single_row():
    trace = schoolbook_multiply(n("937"), n("1"))
    assert [str(row) for row in trace.rows] == ["937"]
    assert str(trace.result) == "937"


def test_schoolbook_zero_by_zero():
    trace = schoolbook_multiply(n("0"), n("0"))
    assert trace.rows == ()
    assert str(trace.result) == "0"


def test_counters_match_across_algorithms():
    inc = incremental_multiply(n("1234"), n("567"))
    sch = schoolbook_multiply(n("1234"), n("567"))
    assert inc.counters.digit_mults == sch.counters.digit_mults == 12
    # fixed by the accounting convention, useful as a regression pin
    assert inc.counters.digit_adds == 20
    assert sch.counters.digit_adds == 23


def test_check_invariant_all_true():
    trace = incremental_multiply(n("1234"), n("567"))
    assert check_invariant(trace) == [True, True, True]


def test_check_invariant_vacuous_on_empty_steps():
    trace = incremental_multiply(n("1234"), n("0"))
    assert check_invariant(trace) == []


def test_check_invariant_catches_corrupted_digit():
    trace = incremental_multiply(n("1234"), n("567"))
    s0, s1, s2 = trace.steps
    corrupted = Trace(
        algorithm=trace.algorithm,
        base=trace.base,
        a=trace.a,
        b=trace.b,
        steps=(s0, StepRecord(s1.k, s1.s, 8, s1.c_next), s2),
        rows=(),
        result=trace.result,
        counters=trace.counters,
    )
    assert check_invariant(corrupted) == [True, False, False]


def test_check_invariant_rejects_schoolbook_trace():
    trace = schoolbook_multiply(n("12"), n("34"))
    with pytest.raises(errors.WrongAlgorithm):
        check_invariant(trace)


def test_check_invariant_rejects_out_of_range_digit(request, monkeypatch):
    """A bad step digit fails alike on both backends: a bool or float used
    to reach the kernels, where Python returned flags and C raised."""
    trace = incremental_multiply(n("12"), n("34"))
    s0, s1 = trace.steps
    for backend in ("python", "compiled"):
        if backend == "python":
            impl = _kernels_py
        else:
            impl = request.getfixturevalue("compiled_kernels")
        monkeypatch.setattr(kernels, "impl", impl)
        for bad in (99, -1, True, 1.5):
            steps = (s0, StepRecord(s1.k, s1.s, bad, s1.c_next))
            corrupted = Trace(
                trace.algorithm,
                trace.base,
                trace.a,
                trace.b,
                steps,
                trace.rows,
                trace.result,
                trace.counters,
            )
            with pytest.raises(errors.DigitOutOfRange):
                check_invariant(corrupted)


def test_check_invariant_rejects_values_outside_the_trace_base(request, monkeypatch):
    """a, b, a carry or a step sum in another base fails alike on both
    backends: Python used to return flags where C raised a bare ValueError."""
    trace = incremental_multiply(n("12"), n("34"))
    s0, s1 = trace.steps

    def traced(base, a, b, steps):
        return Trace(INCREMENTAL, base, a, b, steps, (), trace.result, trace.counters)

    broken = (
        traced(7, n("9"), n("9"), ()),
        traced(10, trace.a, n("34", 16), trace.steps),
        traced(10, trace.a, trace.b, (s0, StepRecord(s1.k, s1.s, s1.r, n("f", 16)))),
        traced(10, trace.a, trace.b, (s0, StepRecord(s1.k, n("f", 16), s1.r, s1.c_next))),
    )
    for backend in ("python", "compiled"):
        if backend == "python":
            impl = _kernels_py
        else:
            impl = request.getfixturevalue("compiled_kernels")
        monkeypatch.setattr(kernels, "impl", impl)
        for corrupted in broken:
            with pytest.raises(errors.BaseMismatch):
                check_invariant(corrupted)


def test_multiply_dispatch():
    assert str(multiply(n("1234"), n("567"), INCREMENTAL)) == "699678"
    assert str(multiply(n("1234"), n("567"), SCHOOLBOOK)) == "699678"
    with pytest.raises(ValueError):
        multiply(n("1"), n("1"), "karatsuba")


def traced_peak(call):
    """tracemalloc peak of one call, in bytes above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("base", [10, 36])
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_multiply_holds_one_carry_buffer(backend, base, request, monkeypatch):
    """The paper's memory claim, as allocation counts rather than timings:
    the result-only product stores no steps and no rows, so its peak sits
    far below the traced run's and schoolbook's, and grows linearly (a
    quadratic peak would grow ~16x from 256^2 to 1024^2).  Base 36 packs
    the fewest digits per limb, and its multiplicand and carry, held as
    ints, are the widest for a given digit count."""
    if backend == "compiled":
        monkeypatch.setattr(kernels, "impl", request.getfixturevalue("compiled_kernels"))
    rng = random.Random(512)

    def operand(n):
        return from_int(rng.randrange(base ** (n - 1), base**n), base)

    a, b = operand(512), operand(512)
    peak = traced_peak(lambda: multiply(a, b))
    assert peak < traced_peak(lambda: incremental_multiply(a, b)) / 20
    assert peak < traced_peak(lambda: multiply(a, b, SCHOOLBOOK))
    small = operand(256), operand(256)
    large = operand(1024), operand(1024)
    assert traced_peak(lambda: multiply(*large)) < 6 * traced_peak(lambda: multiply(*small))


@pytest.mark.parametrize("base", [2, 10, 16, 36])
def test_incremental_product_streams_its_limbs(base):
    """The pure-Python kernel holds A, one carry, its glyph text and the
    output bytes besides the output list: its own peak stays within 1.3x of
    that list, which a kernel that listed every limb of b or of the output
    would exceed.  The per-base tables are built before tracing, so the peak
    does not depend on which test ran first."""
    _kernels_py.piece_table(base)
    rng = random.Random(base)
    a, b = (from_int(rng.randrange(base**1023, base**1024), base).digits for _ in range(2))
    product = []
    peak = traced_peak(lambda: product.append(_kernels_py.incremental_product(a, b, base)))
    assert peak <= 1.3 * sys.getsizeof(product[0])


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_verify_pair_holds_one_algorithm_at_a_time(backend, request, monkeypatch):
    """A verify pair drops the incremental steps before schoolbook builds
    its rows, so it peaks near the larger of the two kernels alone, not at
    their sum."""
    impl = _kernels_py
    if backend == "compiled":
        impl = request.getfixturevalue("compiled_kernels")
    monkeypatch.setattr(kernels, "impl", impl)
    rng = random.Random(128)
    x, y = (rng.randrange(10**127, 10**128) for _ in range(2))
    a, b = from_int(x, 10).digits, from_int(y, 10).digits
    mismatches, failures = [], []
    pair = traced_peak(lambda: _check_pair(a, b, 10, x * y, mismatches, failures))
    assert mismatches == failures == []
    kernel = max(
        traced_peak(lambda: list(impl.incremental_steps(a, b, 10))),
        traced_peak(lambda: impl.schoolbook(a, b, 10)),
    )
    assert pair <= 1.2 * kernel


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_verify_pair_streams_the_traced_steps(backend, request, monkeypatch):
    """On both backends the traced steps go from the step iterator into the
    checker one at a time, so a verify pair keeps no step list and peaks at
    schoolbook's rows alone (a listed trace added half as much again at
    256 x 256)."""
    impl = _kernels_py
    if backend == "compiled":
        impl = request.getfixturevalue("compiled_kernels")
    monkeypatch.setattr(kernels, "impl", impl)
    rng = random.Random(256)
    x, y = (rng.randrange(10**255, 10**256) for _ in range(2))
    a, b = from_int(x, 10).digits, from_int(y, 10).digits
    mismatches, failures = [], []
    pair = traced_peak(lambda: _check_pair(a, b, 10, x * y, mismatches, failures))
    assert mismatches == failures == []
    assert pair <= 1.1 * traced_peak(lambda: impl.schoolbook(a, b, 10))


def test_multiply_commutes_on_values():
    assert str(multiply(n("567"), n("1234"))) == "699678"


def test_multiply_identity_and_annihilator():
    for text in ("0", "1", "9", "4095"):
        assert str(multiply(n(text), n("1"))) == text
        assert str(multiply(n(text), n("0"))) == "0"


def test_base_mismatch():
    with pytest.raises(errors.BaseMismatch):
        incremental_multiply(n("1"), n("1", 16))
    with pytest.raises(errors.BaseMismatch):
        schoolbook_multiply(n("1"), n("1", 16))


def test_small_products_all_bases_against_int():
    for base in (2, 3, 8, 10, 16, 36):
        for x in range(25):
            for y in range(25):
                a, b = from_int(x, base), from_int(y, base)
                assert to_int(multiply(a, b, INCREMENTAL)) == x * y
                assert to_int(multiply(a, b, SCHOOLBOOK)) == x * y
