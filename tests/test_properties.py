"""Property tests over random values and bases, with plain int arithmetic
as the reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from carrymul.algorithms import (
    INCREMENTAL,
    SCHOOLBOOK,
    check_invariant,
    incremental_multiply,
    multiply,
    schoolbook_multiply,
)
from carrymul.digits import from_int, parse_natural, render_natural, to_int
from carrymul.oracle import oracle_multiply

bases = st.integers(min_value=2, max_value=36)
values = st.integers(min_value=0, max_value=10**40)
small_values = st.integers(min_value=0, max_value=10**12)


@given(values, bases)
def test_parse_render_round_trip(value, base):
    n = from_int(value, base)
    assert to_int(parse_natural(render_natural(n), base)) == value


@given(values, values, bases)
def test_all_routes_agree(x, y, base):
    a, b = from_int(x, base), from_int(y, base)
    trace = incremental_multiply(a, b)
    assert to_int(trace.result) == x * y
    assert to_int(schoolbook_multiply(a, b).result) == x * y
    assert to_int(oracle_multiply(a, b)) == x * y
    assert all(check_invariant(trace))


@given(values, values, bases)
def test_result_only_multiply_matches_traced_result(x, y, base):
    a, b = from_int(x, base), from_int(y, base)
    assert multiply(a, b) == incremental_multiply(a, b).result


@given(values, values, bases)
def test_multiply_commutes(x, y, base):
    a, b = from_int(x, base), from_int(y, base)
    for alg in (INCREMENTAL, SCHOOLBOOK):
        assert multiply(a, b, alg) == multiply(b, a, alg)


@given(values, bases)
def test_identity_and_annihilator(x, base):
    a = from_int(x, base)
    one, zero = from_int(1, base), from_int(0, base)
    assert multiply(a, one) == a
    assert multiply(a, zero) == zero


@given(values, values, bases)
def test_mult_count_is_length_product(x, y, base):
    a, b = from_int(x, base), from_int(y, base)
    inc = incremental_multiply(a, b)
    sch = schoolbook_multiply(a, b)
    expected = len(a.digits) * len(b.digits)
    assert inc.counters.digit_mults == expected
    assert sch.counters.digit_mults == expected


@given(small_values, small_values, bases, bases)
def test_product_value_is_base_independent(x, y, b1, b2):
    p1 = to_int(multiply(from_int(x, b1), from_int(y, b1)))
    p2 = to_int(multiply(from_int(x, b2), from_int(y, b2)))
    assert p1 == p2 == x * y


@given(values, values, bases)
@settings(max_examples=50)
def test_trace_digits_stay_canonical(x, y, base):
    trace = incremental_multiply(from_int(x, base), from_int(y, base))
    for step in trace.steps:
        assert not step.s.digits or step.s.digits[-1] != 0
        assert not step.c_next.digits or step.c_next.digits[-1] != 0
        assert 0 <= step.r < base
