"""Canonical base-b naturals: parsing, rendering, conversion.

A ``Natural`` is an immutable little-endian digit vector together with its
base.  Canonical form has no high-order zeros and represents zero as the
empty vector, so equal values always have equal representations.

The digit alphabet is fixed: value v renders as chr('0'+v) for v <= 9 and
chr('a'+v-10) for v >= 10; parsing accepts either case.  Bases run from 2
to 36 so every digit is a single glyph.
"""

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

# the glyphs of digits 0..35, as incremental_product parses them
ALPHABET = _kernels_py.GLYPHS[:MAX_BASE].decode("ascii")
_GLYPH_VALUE = {c: v for v, c in enumerate(ALPHABET)}
_GLYPH_VALUE.update({c.upper(): v for v, c in enumerate(ALPHABET) if c.isalpha()})
# base -> translate table: byte v < base -> its glyph; bytes base..255 map
# to 0xFF, which no ASCII decode accepts
_RENDER = {
    base: ALPHABET[:base].encode("ascii") + b"\xff" * (256 - base)
    for base in range(MIN_BASE, MAX_BASE + 1)
}


def check_base(base):
    is_int = isinstance(base, int) and not isinstance(base, bool)
    if not is_int or not MIN_BASE <= base <= MAX_BASE:
        raise BaseOutOfRange(base)
    return base


def check_count(name, value):
    """Raise ValueError unless value is an exact int (not bool) >= 1."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


class Record:
    """Base of the package's value types: construction, equality, hashing,
    repr, pickling and ``_asdict`` read the fields from the subclass's
    ``__slots__``, in order.

    Immutable: a field is bound once, while building, and assigning or
    deleting one raises AttributeError.  Equal only to an instance of the
    same class with equal fields, and hashed like the tuple of its fields,
    so a record holding a dict or list is unhashable as that tuple is.  A
    subclass declares its fields once, in ``__slots__``, and writes an
    ``__init__`` only to check its input."""

    __slots__ = ()

    def __init__(self, *values, **named):
        """Bind the fields in ``__slots__`` order, by position and then by
        name, each with ``object.__setattr__``."""
        names = self.__slots__
        if len(values) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields")
        for name in names[len(values):]:
            if name not in named:
                raise TypeError(f"{type(self).__name__} missing field {name!r}")
            values += (named.pop(name),)
        if named:  # a field given twice, or no field at all
            raise TypeError(f"{type(self).__name__}: repeated or unknown {list(named)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self):
        """{field: value} in ``__slots__`` order, as a namedtuple's."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuild through __init__: the default slot-state restore assigns
        # each field, which __setattr__ refuses
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Natural(Record):
    """Canonical little-endian digit vector in a fixed base."""

    __slots__ = ("digits", "base")

    def __init__(self, digits: tuple[int, ...], base: int):
        # a list would build, but unhashable and unequal to the same tuple
        if type(digits) is not tuple:
            raise TypeError(f"digits must be a tuple, not {type(digits).__name__}")
        check_digits(digits, check_base(base))
        if digits and digits[-1] == 0:
            raise ValueError("digit vector is not canonical (high-order zero)")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "base", base)

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
    digits the calling entry point has just checked.  The fields go straight
    into Natural's two slots, so the instance holds no dict."""
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
    # a list or tuple of glyphs would parse too, and bytes fail as digit codes
    if type(text) is not str:
        raise TypeError(f"text must be a str, not {type(text).__name__}")
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
    return wrap(_kernels_py.strip_high_zeros(values), base)


def render_natural(n: Natural) -> str:
    """Most-significant-first string; zero renders as "0"."""
    return render_digits(n.digits, n.base)


def render_digits(digits, base) -> str:
    """Render a raw little-endian digit list without building a Natural.

    One pass: bytes() rejects a non-integer (TypeError) or a value outside
    0..255 (ValueError), and a value that is not a base-``base`` digit fails
    the ASCII decode (UnicodeDecodeError, a ValueError) instead of becoming
    a glyph."""
    if not digits:
        return "0"
    return bytes(digits[::-1]).translate(_RENDER[base]).decode("ascii")


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
