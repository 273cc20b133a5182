import pytest

from carrymul import errors
from carrymul.arith import OpCounters, add, divmod_base, mul_by_digit, shift
from carrymul.digits import from_int, parse_natural, to_int


def n(text, base=10):
    return parse_natural(text, base)


def test_add_carry_into_step():
    # 1234*6 = 7404, plus the previous step's carry 863
    c = OpCounters()
    assert str(add(n("7404"), n("863"), c)) == "8267"
    assert c.digit_adds == 4  # max(4, 3) positions, no final carry


def test_add_identity():
    for text in ["0", "5", "99", "123456"]:
        assert str(add(n(text), n("0"))) == text


def test_add_full_cascade():
    c = OpCounters()
    assert str(add(n("999"), n("1"), c)) == "1000"
    assert c.digit_adds == 4  # 3 positions plus the emitted carry digit


def test_add_base_mismatch():
    with pytest.raises(errors.BaseMismatch):
        add(n("1"), n("1", 16))


def test_mul_by_digit_first_step():
    c = OpCounters()
    assert str(mul_by_digit(n("1234"), 7, c)) == "8638"
    assert c.digit_mults == 4
    assert c.digit_adds == 4


def test_mul_by_zero_still_counts_every_digit():
    c = OpCounters()
    assert str(mul_by_digit(n("1234"), 0, c)) == "0"
    assert c.digit_mults == 4  # zeros are never skipped


def test_mul_by_digit_derived():
    assert str(mul_by_digit(n("162"), 2)) == "324"


def test_mul_by_digit_rejects_non_digit():
    with pytest.raises(ValueError):
        mul_by_digit(n("12"), 10)
    for bad in (1.5, True, -1):  # the same error on either kernel backend
        with pytest.raises(ValueError):
            mul_by_digit(n("12"), bad)


def test_divmod_base():
    q, r = divmod_base(n("8638"))
    assert (str(q), r) == ("863", 8)
    q, r = divmod_base(n("0"))
    assert (str(q), r) == ("0", 0)
    q, r = divmod_base(n("6996"))
    assert (str(q), r) == ("699", 6)


def test_divmod_reconstruction():
    for value in range(0, 4000, 37):
        for base in (2, 10, 16):
            x = from_int(value, base)
            q, r = divmod_base(x)
            assert to_int(q) * base + r == value


def test_shift():
    assert str(shift(n("8638"), 0)) == "8638"
    assert str(shift(n("7404"), 1)) == "74040"
    assert str(shift(n("0"), 5)) == "0"  # no phantom digits
    for bad in (-1, True, 1.0):  # True used to shift as 1
        with pytest.raises(ValueError):
            shift(n("3"), bad)


def test_add_mul_against_int_oracle():
    for base in (2, 10, 36):
        for x in range(0, 60, 7):
            for y in range(0, 60, 11):
                assert to_int(add(from_int(x, base), from_int(y, base))) == x + y
            for d in range(min(base, 9)):
                assert to_int(mul_by_digit(from_int(x, base), d)) == x * d
