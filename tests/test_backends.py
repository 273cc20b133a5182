"""Cross-backend equivalence: the compiled kernels must match the pure
Python reference exactly, counters and step records included.

The compiled module comes from the ``compiled_kernels`` fixture, which builds
the C source, so these checks run wherever a C compiler exists."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrymul import _kernels_py, errors, kernels
from carrymul.algorithms import StepRecord, Trace, check_invariant, incremental_multiply
from carrymul.digits import Natural, from_int, parse_natural, to_int
from carrymul.oracle import all_bases, exhaustive_check, random_check
from carrymul.trace_io import render_trace_json, render_trace_text

py = _kernels_py
GOLDEN = Path(__file__).parent / "golden"
# the smallest int <-> str cap CPython accepts, the longest parse the
# pure-Python incremental_product makes (Pythons before 3.10.7 have no cap)
CHUNK = getattr(sys.int_info, "str_digits_check_threshold", 640)


@pytest.fixture(params=["python", "compiled"])
def backend(request):
    if request.param == "python":
        return py
    return request.getfixturevalue("compiled_kernels")


def exact_vector(rng, base, length):
    """A canonical vector of exactly length digits."""
    return [rng.randrange(base) for _ in range(length - 1)] + [rng.randrange(1, base)]


def random_vector(rng, base, max_len):
    length = rng.randint(0, max_len)
    return exact_vector(rng, base, length) if length else []


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


def test_incremental_steps_are_the_traced_steps(backend):
    """incremental_steps gives the steps that incremental lists, on both
    backends, for trivial, lopsided and random shapes in several bases."""
    rng = random.Random(20)
    for base in (2, 10, 16, 36):
        for la, lb in ((0, 0), (0, 3), (3, 0), (1, 1), (1, 9), (9, 1), (17, 23)):
            a, b = (exact_vector(rng, base, n) if n else [] for n in (la, lb))
            steps, *counted = backend.incremental(a, b, base)
            assert list(backend.incremental_steps(a, b, base)) == steps
            assert list(_kernels_py.tally(a, b, steps)) == counted


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
        product = backend.incremental_product(a, b, base)
        assert product == res
        assert_canonical(product, base)
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


def test_spec_add_and_mul_by_digit_against_int_arithmetic():
    """add and mul_by_digit have no compiled mirror: the spec kernels call
    them directly."""
    rng = random.Random(99)
    for _ in range(250):
        base = rng.randint(2, 36)
        a = random_vector(rng, base, 12)
        b = random_vector(rng, base, 12)
        va, vb = value(a, base), value(b, base)
        res = py.add(a, b, base)
        assert value(res, base) == va + vb
        assert_canonical(res, base)
        res = py.mul_by_digit(a, b[0] if b else 0, base)
        assert value(res, base) == va * (b[0] if b else 0)
        assert_canonical(res, base)


def test_backends_agree_everywhere(compiled_kernels):
    cy = compiled_kernels
    rng = random.Random(2024)
    for _ in range(500):
        base = rng.randint(2, 36)
        a = random_vector(rng, base, 24)
        b = random_vector(rng, base, 24)
        traced = py.incremental(a, b, base)
        assert traced == cy.incremental(a, b, base)
        product = traced[1]
        assert py.incremental_product(a, b, base) == product
        assert cy.incremental_product(a, b, base) == product
        assert py.schoolbook(a, b, base) == cy.schoolbook(a, b, base)
        assert py.oracle_mul(a, b, base) == cy.oracle_mul(a, b, base)
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


@pytest.mark.parametrize("base", [2, 10, 36])
@pytest.mark.parametrize("la, lb", [(1, 9), (9, 1), (9, 9)], ids=["1xn", "nx1", "nxn"])
def test_check_invariant_mutation_sweep(backend, base, la, lb):
    """Corrupt every step digit and every carry of seeded traces in turn.
    A bad r_k breaks the prefix, so steps k..end fail; a bad carry out of
    step k is read by step k alone, because the right side is rebuilt from
    a and b; a high zero on a carry leaves its value, so nothing fails."""
    rng = random.Random(base * 100 + la * 10 + lb)
    for _ in range(4):
        a, b = exact_vector(rng, base, la), exact_vector(rng, base, lb)
        steps = py.incremental(a, b, base)[0]
        n = len(steps)

        def flags(steps):
            return backend.check_invariant(a, b, steps, base)

        assert flags(steps) == [True] * n
        for k, (s, r, carry) in enumerate(steps):
            bad = list(steps)
            bad[k] = (s, (r + 1) % base, carry)
            assert flags(bad) == [i < k for i in range(n)]
            wrongs = []
            for j, d in enumerate(carry):
                wrongs.append(carry[:j] + [(d + 1) % base] + carry[j + 1 :])
            for wrong in wrongs or [[1]]:  # an empty carry becomes 1
                bad[k] = (s, r, wrong)
                assert flags(bad) == [i != k for i in range(n)]
            bad[k] = (s, r, carry + [0])
            assert flags(bad) == [True] * n


@st.composite
def checker_inputs(draw):
    """Operands, and a step list that starts from the true trace and then
    swaps in arbitrary in-range digits: any r, carries of any length (empty
    and with high zeros included), and steps past the last multiplier digit."""
    base = draw(st.integers(2, 36))
    digit = st.integers(0, base - 1)
    a = py.strip_high_zeros(draw(st.lists(digit, max_size=8)))
    b = py.strip_high_zeros(draw(st.lists(digit, max_size=8)))
    steps = []
    for s, r, carry in py.incremental(a, b, base)[0]:
        r = draw(st.one_of(st.just(r), digit))
        carry = draw(
            st.one_of(
                st.just(carry),
                st.just(carry + [0] * draw(st.integers(1, 3))),
                st.lists(digit, max_size=len(a) + 2),
            )
        )
        steps.append((s, r, carry))
    extra = st.tuples(st.just([]), digit, st.lists(digit, max_size=3))
    steps += draw(st.lists(extra, max_size=2))
    return a, b, steps, base


@settings(max_examples=300)
@given(checker_inputs())
def test_check_invariant_matches_int_arithmetic(compiled_kernels, inputs):
    """Flag k holds iff k < len(b) and the emitted digits through step k
    plus base**(k+1) times its carry equal a times b mod base**(k+1)."""
    a, b, steps, base = inputs
    va, vb = value(a, base), value(b, base)
    expected = []
    for k, (_, _, carry) in enumerate(steps):
        low = sum(step[1] * base**i for i, step in enumerate(steps[: k + 1]))
        lhs = low + base ** (k + 1) * value(carry, base)
        expected.append(k < len(b) and lhs == va * (vb % base ** (k + 1)))
    assert py.check_invariant(a, b, steps, base) == expected
    assert compiled_kernels.check_invariant(a, b, steps, base) == expected


def ndigits(n, base):
    """Length of the canonical vector of n: zero has no digits."""
    length = 0
    while n:
        n //= base
        length += 1
    return length


def add_cost(x, y, base):
    """digit_adds of one add: max of the operand lengths, plus one when a
    final carry digit is emitted."""
    width = max(ndigits(x, base), ndigits(y, base))
    return width + (ndigits(x + y, base) > width)


@st.composite
def counter_inputs(draw):
    base = draw(st.integers(2, 36))
    digit = st.one_of(st.just(0), st.just(base - 1), st.integers(0, base - 1))
    a, b = draw(st.lists(digit, max_size=12)), draw(st.lists(digit, max_size=12))
    for v in (a, b):
        while v and v[-1] == 0:
            v.pop()
    return a, b, base


@settings(max_examples=300)
@given(counter_inputs())
def test_counters_follow_the_convention(compiled_kernels, inputs):
    """digit_mults and digit_adds of both algorithms, recomputed in int
    arithmetic: each mul_by_digit ticks len(a) mults and len(a) adds, and
    each add after the first value ticks add_cost."""
    a, b, base = inputs
    va, la, lb = value(a, base), len(a), len(b)
    mults = la * lb
    carry, inc_adds = 0, la * lb
    for k, d in enumerate(b):
        s = va * d + carry
        if k:
            inc_adds += add_cost(va * d, carry, base)
        carry = s // base
    acc, sch_adds = 0, la * lb
    for j, d in enumerate(b):
        row = va * d * base**j
        if j:
            sch_adds += add_cost(acc, row, base)
        acc += row
    for backend in (py, compiled_kernels):
        assert backend.incremental(a, b, base)[2:] == (mults, inc_adds)
        assert backend.schoolbook(a, b, base)[2:] == (mults, sch_adds)


@st.composite
def oracle_operands(draw, base):
    """A canonical vector of 0..70 digits weighted to 0 and base - 1, so
    zero digits sit inside it and every bit of a digit gets set."""
    length = draw(st.integers(0, 70))
    if not length:
        return []
    digit = st.one_of(st.just(0), st.just(base - 1), st.integers(0, base - 1))
    body = draw(st.lists(digit, min_size=length - 1, max_size=length - 1))
    return body + [draw(st.one_of(st.just(base - 1), st.integers(1, base - 1)))]


@pytest.mark.parametrize("base", range(2, 37))
@settings(max_examples=25)
@given(data=st.data())
def test_oracle_matches_int_arithmetic(compiled_kernels, base, data):
    """oracle_mul is the int product at the edges of its digit-serial
    double-and-add, in every base: a power of two fills the doubling table
    exactly, and bases 33..36 need all six doublings."""
    a = data.draw(oracle_operands(base), label="a")
    b = data.draw(oracle_operands(base), label="b")
    expected = value(a, base) * value(b, base)
    for backend in (py, compiled_kernels):
        product = backend.oracle_mul(a, b, base)
        assert value(product, base) == expected
        assert_canonical(product, base)


def test_trivial_shapes(backend):
    assert backend.incremental([], [], 10) == ([], [], 0, 0)
    assert backend.incremental([], [3], 10) == ([([], 0, [])], [], 0, 0)
    assert backend.schoolbook([1], [], 10) == ([], [], 0, 0)
    assert backend.schoolbook([5], [0, 1], 10) == ([[], [0, 5]], [0, 5], 2, 4)
    assert backend.oracle_mul([], [5], 10) == []
    assert backend.oracle_mul([5], [], 10) == []
    assert backend.check_invariant([], [], [], 10) == []
    assert backend.incremental_product([9, 9], [9], 10) == [1, 9, 8]
    assert backend.incremental_product([], [3, 1], 10) == []
    assert backend.incremental_product([4, 2], [], 10) == []
    rng = random.Random(1024)
    long = [rng.randrange(10) for _ in range(1023)] + [7]
    shapes = [
        ([], [], 10),
        ([], [3, 1], 10),
        ([4, 2], [], 10),
        ([7], [8], 10),
        ([0, 0, 1], [5], 10),
        ([9] * 6, [9] * 4, 10),
        ([1] * 9, [1] * 5, 2),
        ([35] * 6, [35] * 7, 36),
        (long, [9], 10),
        ([9], long, 10),
    ]
    # limb edges of incremental_product, which packs g digits per limb and
    # writes each limb as pieces of h digits
    for base in all_bases():
        g = py.limb_radix(base)[0]
        h = py.piece_table(base)[0]
        top = base - 1  # every digit maximal: the largest carries
        full = [[top] * n for n in (g - 1, g, g + 1, 2 * g + 1)]
        zero_low_limb = [0] * g + [1]
        shapes += [(a, b, base) for a in full for b in full]
        shapes += [
            (zero_low_limb, zero_low_limb, base),
            (zero_low_limb, full[-1], base),
            (full[-1], zero_low_limb, base),
            ([top], full[-1], base),
            (full[-1], [top], base),
        ]
        # piece boundaries inside a limb: h*j - 1, h*j and h*j + 1 digits
        for n in {h * j + e for j in range(1, -(-g // h) + 1) for e in (-1, 0, 1)}:
            shapes += [([top] * n, [1], base), ([1], [top] * n, base), ([top] * n, [top], base)]
        # a limb whose top piece is zero, below a higher limb and as the top limb
        below_top = g - (g % h or h)
        zero_top = [top] * below_top + [0] * (g - below_top) + [1]
        shapes += [(zero_top, [1], base), ([1], zero_top, base), (zero_top[:below_top], [1], base)]
    for a, b, base in shapes + chunk_edge_shapes(rng):
        assert_product(backend, a, b, base)


def chunk_edge_shapes(rng):
    """Operands at the edges of the chunks the pure-Python
    incremental_product parses a in: CHUNK - 1, CHUNK, CHUNK + 1 and
    2 * CHUNK + 1 digits, random and all maximal, in bases 10 and 36, as a
    and as b; and one past CPython's default cap of 4300 digits."""
    shapes = []
    for base in (10, 36):
        short = [base - 1] * 11
        for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1):
            for x in (exact_vector(rng, base, n), [base - 1] * n):
                shapes += [(x, short, base), (short, x, base)]
    huge = exact_vector(rng, 10, 4500)
    return shapes + [(huge, [9] * 19, 10), ([7, 3], huge, 10)]


def assert_product(backend, a, b, base):
    product = backend.incremental_product(a, b, base)
    assert product == backend.incremental(a, b, base)[1]
    assert value(product, base) == value(a, base) * value(b, base)
    assert_canonical(product, base)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str cap before 3.10.7"
)
def test_incremental_product_under_the_lowest_str_digits_cap(backend):
    """With CPython's int <-> str cap set as low as it goes, to CHUNK
    digits, every chunk edge still multiplies: a parse of more than CHUNK
    glyphs in one int() call would raise here."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(CHUNK)
    try:
        for a, b, base in chunk_edge_shapes(random.Random(CHUNK)):
            assert_product(backend, a, b, base)
    finally:
        sys.set_int_max_str_digits(cap)


def test_spec_helpers_trivial_shapes():
    assert py.add([], [], 10) == []
    assert py.mul_by_digit([], 3, 10) == []
    assert py.mul_by_digit([4, 2], 0, 10) == []
    assert py.divmod_base([]) == ([], 0)
    assert py.shift([], 4) == []
    assert py.strip_high_zeros([0, 0]) == []


GOOD = [4, 3]
STEPS = py.incremental(GOOD, GOOD, 10)[0]
HOSTILE_CALLS = {
    "incremental.a": lambda c, x: c.incremental([x], GOOD, 10),
    "incremental.b": lambda c, x: c.incremental(GOOD, [x], 10),
    "incremental_steps.a": lambda c, x: c.incremental_steps([x], GOOD, 10),
    "incremental_steps.b": lambda c, x: c.incremental_steps(GOOD, [x], 10),
    "incremental_product.a": lambda c, x: c.incremental_product([x], GOOD, 10),
    "incremental_product.b": lambda c, x: c.incremental_product(GOOD, [x], 10),
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
    # step 0 already failed: the bad digit must still be read, not skipped
    "check_invariant.carry_after_mismatch": lambda c, x: c.check_invariant(
        GOOD, GOOD, [(STEPS[0][0], 9, STEPS[0][2]), (STEPS[1][0], STEPS[1][1], [x])], 10
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


def with_step_digit(trace, r):
    first = trace.steps[0]
    steps = (StepRecord(first.k, first.s, r, first.c_next),) + trace.steps[1:]
    return Trace(
        trace.algorithm,
        trace.base,
        trace.a,
        trace.b,
        steps,
        trace.rows,
        trace.result,
        trace.counters,
    )


FORTY_THREE = parse_natural("43", 10)
PUBLIC_ENTRY_POINTS = {
    "Natural": lambda x: Natural((x,), 10),
    "from_int": lambda x: from_int(x, 10),
    "check_invariant.r": lambda x: check_invariant(
        with_step_digit(incremental_multiply(FORTY_THREE, FORTY_THREE), x)
    ),
}


def outcome(call, x):
    try:
        return "returns", call(x)
    except Exception as exc:
        return "raises", type(exc)


@pytest.mark.parametrize(
    "digit", [d for d, _ in HOSTILE_DIGITS], ids=[repr(d) for d, _ in HOSTILE_DIGITS]
)
@pytest.mark.parametrize(
    "call", PUBLIC_ENTRY_POINTS.values(), ids=PUBLIC_ENTRY_POINTS.keys()
)
def test_public_entry_points_reject_hostile_digits_alike(
    compiled_kernels, monkeypatch, call, digit
):
    """The kernels are internal and unchecked, so the public entry points
    must reject bad digits before any kernel runs, with one typed
    exception whichever backend is selected."""
    monkeypatch.setattr(kernels, "impl", py)
    on_python = outcome(call, digit)
    monkeypatch.setattr(kernels, "impl", compiled_kernels)
    assert outcome(call, digit) == on_python
    kind, result = on_python
    if call is PUBLIC_ENTRY_POINTS["from_int"] and type(digit) is int and digit >= 0:
        # a whole value, not a digit: 300 and 2**70 are naturals
        assert kind == "returns" and to_int(result) == digit
        return
    assert kind == "raises"
    assert issubclass(result, (errors.Error, ValueError))


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


def test_compiled_mirror_holds_only_the_hot_kernels(compiled_kernels):
    """The C file mirrors the six kernels multiply, trace and verify run,
    each against its spec in _kernels_py, and nothing else."""
    names = {name for name in dir(compiled_kernels) if not name.startswith("_")}
    assert names == {
        "incremental",
        "incremental_steps",
        "incremental_product",
        "schoolbook",
        "check_invariant",
        "oracle_mul",
    }
    assert all(callable(getattr(py, name)) for name in names)


def test_selected_backend_is_exposed():
    names = kernels.available_backends()
    assert kernels.BACKEND in names
    assert kernels.impl is kernels.get_backend(kernels.BACKEND)
    with pytest.raises(ValueError):
        kernels.get_backend("fortran")
