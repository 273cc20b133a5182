"""Cross-backend equivalence: the compiled kernels must match the pure
Python reference exactly, counters and step records included.

The compiled module comes from the ``compiled_kernels`` fixture, which builds
the C source, so these checks run wherever a C compiler exists."""

import random
from pathlib import Path

import pytest

from carrymul import _kernels_py, kernels
from carrymul.algorithms import incremental_multiply
from carrymul.digits import parse_natural
from carrymul.oracle import all_bases, exhaustive_check, random_check
from carrymul.trace_io import render_trace_json, render_trace_text

py = _kernels_py
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(params=["python", "compiled"])
def backend(request):
    if request.param == "python":
        return py
    return request.getfixturevalue("compiled_kernels")


def random_vector(rng, base, max_len):
    length = rng.randint(0, max_len)
    if length == 0:
        return []
    return [rng.randrange(base) for _ in range(length - 1)] + [rng.randrange(1, base)]


def value(digits, base):
    v = 0
    for d in reversed(digits):
        v = v * base + d
    return v


def test_worked_example_per_backend(backend):
    steps, result, mults, adds = backend.incremental([4, 3, 2, 1], [7, 6, 5], 10)
    assert result == [8, 7, 6, 9, 9, 6]
    assert (mults, adds) == (12, 20)
    assert steps[0] == ([8, 3, 6, 8], 8, [3, 6, 8])


def assert_canonical(digits, base):
    """The output rule of _kernels_py, which digits.wrap relies on."""
    assert all(type(d) is int and 0 <= d < base for d in digits), digits
    assert not digits or digits[-1] != 0, digits


def test_backend_against_int_arithmetic(backend):
    rng = random.Random(99)
    for _ in range(250):
        base = rng.randint(2, 36)
        a = random_vector(rng, base, 12)
        b = random_vector(rng, base, 12)
        va, vb = value(a, base), value(b, base)
        steps, res, _, _ = backend.incremental(a, b, base)
        assert value(res, base) == va * vb
        for s, r, carry in steps:
            assert_canonical(s, base)
            assert type(r) is int and 0 <= r < base
            assert_canonical(carry, base)
        assert_canonical(res, base)
        rows, res, _, _ = backend.schoolbook(a, b, base)
        assert value(res, base) == va * vb
        for row in rows:
            assert_canonical(row, base)
        assert_canonical(res, base)
        res = backend.oracle_mul(a, b, base)
        assert value(res, base) == va * vb
        assert_canonical(res, base)
        res, _ = backend.add(a, b, base)
        assert value(res, base) == va + vb
        assert_canonical(res, base)
        res, _, _ = backend.mul_by_digit(a, b[0] if b else 0, base)
        assert value(res, base) == va * (b[0] if b else 0)
        assert_canonical(res, base)


def test_backends_agree_everywhere(compiled_kernels):
    cy = compiled_kernels
    rng = random.Random(2024)
    for _ in range(500):
        base = rng.randint(2, 36)
        a = random_vector(rng, base, 24)
        b = random_vector(rng, base, 24)
        assert py.incremental(a, b, base) == cy.incremental(a, b, base)
        assert py.schoolbook(a, b, base) == cy.schoolbook(a, b, base)
        assert py.oracle_mul(a, b, base) == cy.oracle_mul(a, b, base)
        assert py.add(a, b, base) == cy.add(a, b, base)
        if a:
            d = rng.randrange(base)
            assert py.mul_by_digit(a, d, base) == cy.mul_by_digit(a, d, base)
        steps, _, _, _ = py.incremental(a, b, base)
        assert py.check_invariant(a, b, steps, base) == cy.check_invariant(
            a, b, steps, base
        )


def test_backends_agree_on_corrupted_steps(compiled_kernels):
    cy = compiled_kernels
    steps, _, _, _ = py.incremental([4, 3, 2, 1], [7, 6, 5], 10)
    s, r, c = steps[1]
    steps[1] = (s, (r + 1) % 10, c)
    expected = [True, False, False]
    assert py.check_invariant([4, 3, 2, 1], [7, 6, 5], steps, 10) == expected
    assert cy.check_invariant([4, 3, 2, 1], [7, 6, 5], steps, 10) == expected
    # a carry that grew a digit, and a step past the last multiplier digit
    steps, _, _, _ = py.incremental([4, 3, 2, 1], [7, 6, 5], 10)
    s, r, c = steps[2]
    steps[2] = (s, r, c + [1])
    steps.append(steps[0])
    expected = [True, True, False, False]
    assert py.check_invariant([4, 3, 2, 1], [7, 6, 5], steps, 10) == expected
    assert cy.check_invariant([4, 3, 2, 1], [7, 6, 5], steps, 10) == expected


def test_trivial_shapes(backend):
    assert backend.incremental([], [], 10) == ([], [], 0, 0)
    assert backend.incremental([], [3], 10) == ([([], 0, [])], [], 0, 0)
    assert backend.schoolbook([1], [], 10) == ([], [], 0, 0)
    assert backend.schoolbook([5], [0, 1], 10) == ([[], [0, 5]], [0, 5], 2, 4)
    assert backend.oracle_mul([], [5], 10) == []
    assert backend.oracle_mul([5], [], 10) == []
    assert backend.add([], [], 10) == ([], 0)
    assert backend.mul_by_digit([], 3, 10) == ([], 0, 0)
    assert backend.mul_by_digit([4, 2], 0, 10) == ([], 2, 2)
    assert backend.check_invariant([], [], [], 10) == []


def test_spec_helpers_trivial_shapes():
    assert py.divmod_base([]) == ([], 0)
    assert py.shift([], 4) == []
    assert py.normalize([0, 0]) == []


GOOD = [4, 3]
STEPS = py.incremental(GOOD, GOOD, 10)[0]
HOSTILE_CALLS = {
    "add.a": lambda c, x: c.add([x], GOOD, 10),
    "add.b": lambda c, x: c.add(GOOD, [1, x], 10),
    "mul_by_digit.a": lambda c, x: c.mul_by_digit([x], 3, 10),
    "mul_by_digit.d": lambda c, x: c.mul_by_digit(GOOD, x, 10),
    "incremental.a": lambda c, x: c.incremental([x], GOOD, 10),
    "incremental.b": lambda c, x: c.incremental(GOOD, [x], 10),
    "schoolbook.a": lambda c, x: c.schoolbook([x, 1], GOOD, 10),
    "schoolbook.b": lambda c, x: c.schoolbook(GOOD, [x], 10),
    "oracle_mul.a": lambda c, x: c.oracle_mul([x], GOOD, 10),
    "oracle_mul.b": lambda c, x: c.oracle_mul(GOOD, [x], 10),
    "check_invariant.a": lambda c, x: c.check_invariant([x], GOOD, STEPS, 10),
    "check_invariant.b": lambda c, x: c.check_invariant(GOOD, [x, 4], STEPS, 10),
    "check_invariant.r": lambda c, x: c.check_invariant(
        GOOD, GOOD, [(STEPS[0][0], x, STEPS[0][2])] + STEPS[1:], 10
    ),
    "check_invariant.carry": lambda c, x: c.check_invariant(
        GOOD, GOOD, [STEPS[0], (STEPS[1][0], STEPS[1][1], [x])], 10
    ),
}
HOSTILE_DIGITS = [
    (300, ValueError),
    (-1, ValueError),
    (10, ValueError),
    (2**70, ValueError),
    (1.5, TypeError),
    (True, TypeError),
    ("3", TypeError),
    (None, TypeError),
]


@pytest.mark.parametrize(
    "digit, error", HOSTILE_DIGITS, ids=[repr(d) for d, _ in HOSTILE_DIGITS]
)
@pytest.mark.parametrize("call", HOSTILE_CALLS.values(), ids=HOSTILE_CALLS.keys())
def test_compiled_kernels_reject_hostile_digits(compiled_kernels, call, digit, error):
    """A digit that is not an int in 0..base-1 raises instead of being cast
    to a byte (a cast turned incremental([300], [3], 10) into [2, 13])."""
    with pytest.raises(error):
        call(compiled_kernels, digit)


@pytest.mark.parametrize("base", [0, 1, 37, 256])
def test_compiled_kernels_reject_bad_base(compiled_kernels, base):
    with pytest.raises(ValueError):
        compiled_kernels.incremental([1], [1], base)


def test_public_api_on_compiled_kernels(compiled_kernels, monkeypatch):
    """The wrappers, drivers and renderers behave the same on the C kernels."""
    monkeypatch.setattr(kernels, "impl", compiled_kernels)
    trace = incremental_multiply(parse_natural("1234", 10), parse_natural("567", 10))
    golden = (GOLDEN / "trace_1234x567.txt").read_text()
    assert render_trace_text(trace) + "\n" == golden
    assert render_trace_json(trace) == (GOLDEN / "trace_1234x567.json").read_text()
    assert exhaustive_check(40, 7).ok()
    assert random_check(300, 16, all_bases(), seed=7).ok()


def test_selected_backend_is_exposed():
    names = kernels.available_backends()
    assert kernels.BACKEND in names
    assert kernels.impl is kernels.get_backend(kernels.BACKEND)
    with pytest.raises(ValueError):
        kernels.get_backend("fortran")
