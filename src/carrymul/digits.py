"""Canonical base-b naturals: parsing, rendering, comparison, conversion.

A ``Natural`` is an immutable little-endian digit vector together with its
base.  Canonical form has no high-order zeros and represents zero as the
empty vector, so equal values always have equal representations.

The digit alphabet is fixed: value v renders as chr('0'+v) for v <= 9 and
chr('a'+v-10) for v >= 10; parsing accepts either case.  Bases run from 2
to 36 so every digit is a single glyph.
"""

from __future__ import annotations

from dataclasses import dataclass

from carrymul import _kernels_py
from carrymul.errors import (
    BaseMismatch,
    BaseOutOfRange,
    DigitOutOfRange,
    EmptyInput,
    InvalidDigitGlyph,
)

MIN_BASE = 2
MAX_BASE = 36

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
_GLYPH_VALUE = {c: v for v, c in enumerate(ALPHABET)}
_GLYPH_VALUE.update({c.upper(): v for v, c in enumerate(ALPHABET) if c.isalpha()})

LESS, EQUAL, GREATER = -1, 0, 1


def check_base(base):
    if not isinstance(base, int) or isinstance(base, bool):
        raise BaseOutOfRange(base)
    if not MIN_BASE <= base <= MAX_BASE:
        raise BaseOutOfRange(base)
    return base


@dataclass(frozen=True)
class Natural:
    """Canonical little-endian digit vector in a fixed base."""

    digits: tuple[int, ...]
    base: int

    def __post_init__(self):
        check_digits(self.digits, check_base(self.base))
        if self.digits and self.digits[-1] == 0:
            raise ValueError("digit vector is not canonical (high-order zero)")

    def __int__(self):
        return to_int(self)

    def __str__(self):
        return render_natural(self)

    def __bool__(self):
        return bool(self.digits)

    def __len__(self):
        return len(self.digits)


def check_digits(digits, base):
    """Raise DigitOutOfRange at the first item that is not an exact int (not
    bool, not float) in 0..base-1: the one check on digits entering the
    package."""
    for i, d in enumerate(digits):
        if type(d) is not int or not 0 <= d < base:
            raise DigitOutOfRange(i, d, base)


def wrap(digits, base) -> Natural:
    """A Natural from digits known to be valid, skipping the checks: kernel
    output from valid Naturals (see the output rule in _kernels_py), or
    digits the calling entry point has just checked.  The fields are set in
    __init__'s order so the instance dict stays key-shared and small."""
    n = object.__new__(Natural)
    object.__setattr__(n, "digits", tuple(digits))
    object.__setattr__(n, "base", base)
    return n


def require_same_base(a: Natural, b: Natural):
    if a.base != b.base:
        raise BaseMismatch(a.base, b.base)
    return a.base


def parse_natural(text: str, base: int) -> Natural:
    """Read a most-significant-first digit string; leading zeros are fine."""
    check_base(base)
    if not text:
        raise EmptyInput()
    values = []
    for pos, ch in enumerate(text):
        v = _GLYPH_VALUE.get(ch)
        if v is None or v >= base:
            raise InvalidDigitGlyph(pos, ch, base)
        values.append(v)
    values.reverse()
    return wrap(_kernels_py.normalize(values), base)


def render_natural(n: Natural) -> str:
    """Most-significant-first string; zero renders as "0"."""
    return render_digits(n.digits, n.base)


def render_digits(digits, base) -> str:
    """Render a raw little-endian digit list without building a Natural."""
    if not digits:
        return "0"
    return "".join(ALPHABET[d] for d in reversed(digits))


def normalize(raw, base) -> Natural:
    """Build a canonical Natural from carry-free digit values."""
    values = list(raw)
    check_digits(values, check_base(base))
    return wrap(_kernels_py.normalize(values), base)


def compare(a: Natural, b: Natural) -> int:
    """LESS (-1), EQUAL (0) or GREATER (1) by represented value."""
    require_same_base(a, b)
    return _kernels_py.compare(a.digits, b.digits)


def to_int(n: Natural) -> int:
    """Positional value as a plain int (test support; exact at any size)."""
    return int_from_digits(n.digits, n.base)


def int_from_digits(digits, base: int) -> int:
    """Positional value of a raw little-endian digit list, in plain int
    arithmetic only, so it shares no code with the kernels."""
    v = 0
    for d in reversed(digits):
        v = v * base + d
    return v


def from_int(value: int, base: int) -> Natural:
    """Decompose a non-negative int into a canonical Natural."""
    check_base(base)
    if type(value) is not int or value < 0:
        raise ValueError(f"naturals only, got {value!r}")
    return Natural(tuple(int_to_digits(value, base)), base)


def int_to_digits(value: int, base: int) -> list:
    """Raw little-endian digit list of a non-negative int (driver plumbing)."""
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    return digits
