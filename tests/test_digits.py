import tracemalloc

import pytest

from carrymul import errors
from carrymul.digits import (
    EQUAL,
    GREATER,
    LESS,
    Natural,
    compare,
    from_int,
    normalize,
    parse_natural,
    render_natural,
    to_int,
    wrap,
)


def test_parse_positional_read():
    assert parse_natural("1234", 10).digits == (4, 3, 2, 1)


def test_parse_zeros_is_canonical_empty():
    assert parse_natural("000", 10).digits == ()
    assert parse_natural("0", 10).digits == ()


def test_parse_hex():
    assert parse_natural("ff", 16).digits == (15, 15)
    assert parse_natural("FF", 16).digits == (15, 15)  # case-insensitive


def test_parse_leading_zeros_stripped():
    assert parse_natural("0012", 10).digits == (2, 1)


def test_parse_empty_input():
    with pytest.raises(errors.EmptyInput):
        parse_natural("", 10)


def test_parse_invalid_glyph_reports_position():
    with pytest.raises(errors.InvalidDigitGlyph) as exc:
        parse_natural("12a4", 10)
    assert exc.value.position == 2
    assert exc.value.char == "a"
    with pytest.raises(errors.InvalidDigitGlyph):
        parse_natural("1#4", 10)


@pytest.mark.parametrize("base", [-1, 0, 1, 37, 100])
def test_base_out_of_range(base):
    with pytest.raises(errors.BaseOutOfRange):
        parse_natural("1", base)


def test_render_worked_example_product():
    assert render_natural(Natural((8, 7, 6, 9, 9, 6), 10)) == "699678"


def test_render_zero():
    assert render_natural(Natural((), 10)) == "0"


def test_render_hex_lowercase():
    assert render_natural(Natural((15, 15), 16)) == "ff"


def test_round_trip():
    for text, base in [("1234", 10), ("ff", 16), ("101101", 2), ("zz", 36)]:
        assert render_natural(parse_natural(text, base)) == text


def test_normalize_strips_high_zeros():
    assert normalize([4, 3, 2, 1, 0, 0], 10).digits == (4, 3, 2, 1)
    assert normalize([0], 10).digits == ()
    assert normalize([9], 10).digits == (9,)


def test_normalize_rejects_out_of_range():
    with pytest.raises(errors.DigitOutOfRange) as exc:
        normalize([3, 10], 10)
    assert exc.value.index == 1


def test_compare():
    n = lambda t: parse_natural(t, 10)
    assert compare(n("162"), n("162")) == EQUAL
    assert compare(n("9"), n("10")) == LESS  # length dominates
    assert compare(n("700000"), n("699678")) == GREATER
    assert compare(n("0"), n("1")) == LESS


def test_compare_base_mismatch():
    with pytest.raises(errors.BaseMismatch):
        compare(parse_natural("1", 10), parse_natural("1", 16))


def test_to_int():
    assert to_int(Natural((8, 3, 6, 8), 10)) == 8638
    assert to_int(Natural((), 7)) == 0
    assert to_int(Natural((1, 1), 2)) == 3


def test_from_int_round_trip():
    for value in [0, 1, 9, 10, 255, 8638, 699678]:
        for base in [2, 10, 16, 36]:
            assert to_int(from_int(value, base)) == value


def test_compare_agrees_with_int_ordering():
    values = list(range(0, 130, 7))
    for base in (2, 10, 36):
        naturals = [from_int(v, base) for v in values]
        for x, nx in zip(values, naturals):
            for y, ny in zip(values, naturals):
                expected = (x > y) - (x < y)
                assert compare(nx, ny) == expected


def test_natural_rejects_non_canonical():
    with pytest.raises(ValueError):
        Natural((1, 0), 10)
    with pytest.raises(errors.DigitOutOfRange):
        Natural((12,), 10)
    with pytest.raises(errors.BaseOutOfRange):
        Natural((1,), 1)


@pytest.mark.parametrize(
    "digits, index",
    [
        ((1.5,), 0),
        ((True,), 0),
        ((1, True), 1),
        ((3, 2.0, 1), 1),
        (("1",), 0),
        ((None,), 0),
        ((4, -1), 1),
        ((4, 10), 1),
    ],
    ids=repr,
)
def test_natural_rejects_hostile_digits(digits, index):
    """Only exact ints in 0..base-1 are digits: a float or bool slipping in
    used to flow into the kernels (1.5 times 3 came out as (4.5,))."""
    with pytest.raises(errors.DigitOutOfRange) as exc:
        Natural(digits, 10)
    assert exc.value.index == index
    assert exc.value.value is digits[index]


def test_normalize_rejects_bool_and_float():
    for bad in (True, 1.0):
        with pytest.raises(errors.DigitOutOfRange):
            normalize([bad], 10)


def test_from_int_rejects_non_int():
    """True used to come out as 1, and 12.0 as a digit error about 2.0."""
    for bad in (True, 12.0, 1.5, -1):
        with pytest.raises(ValueError):
            from_int(bad, 10)


def test_wrap_matches_checked_natural():
    for digits, base in [((), 10), ((8, 3, 6, 8), 10), ((15, 15), 16)]:
        checked = Natural(digits, base)
        wrapped = wrap(list(digits), base)
        assert wrapped == checked
        assert hash(wrapped) == hash(checked)
        assert repr(wrapped) == repr(checked)


class PlainPair:
    """An ordinary object with Natural's two fields, as a memory yardstick."""

    def __init__(self, digits, base):
        self.digits = digits
        self.base = base


def test_wrap_costs_no_more_memory_than_a_plain_object():
    """wrap must keep the instance dict key-shared: filling __dict__ by hand
    gives instances their own dicts and more than doubles their size."""

    def traced_bytes(make):
        digits = (1, 2)  # shared, so only the instances themselves count
        sizes = []
        for _ in range(2):  # the first run also pays for one-off setup
            tracemalloc.start()
            values = [make(digits, 10) for _ in range(1000)]
            sizes.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()
            assert len(values) == 1000
        return min(sizes)

    plain = traced_bytes(PlainPair)
    assert traced_bytes(wrap) <= 1.1 * plain
    assert traced_bytes(Natural) <= 1.1 * plain
