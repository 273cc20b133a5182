"""Instrumented elementary operations on Naturals.

Every function is pure with respect to values; the optional ``counters``
argument is a plain mutable tally owned by one computation.  One OpCounters
instance must not be shared across concurrent computations.
"""

from __future__ import annotations

from carrymul import _kernels_py
from carrymul.digits import Natural, Record, require_same_base, wrap


class OpCounters(Record):
    """Tallies of elementary digit operations.

    digit_mults counts single-digit by single-digit multiplications; zeros
    are never skipped, so one mul_by_digit call ticks exactly len(a) times.
    digit_adds counts digit-position addition steps, carry absorption
    included (a convention, see _kernels_py).
    """

    __slots__ = ("digit_mults", "digit_adds")

    def __init__(self, digit_mults: int = 0, digit_adds: int = 0):
        self.digit_mults = digit_mults
        self.digit_adds = digit_adds

    def merge(self, other: "OpCounters"):
        self.digit_mults += other.digit_mults
        self.digit_adds += other.digit_adds


def add(a: Natural, b: Natural, counters: OpCounters | None = None) -> Natural:
    base = require_same_base(a, b)
    digits = _kernels_py.add(a.digits, b.digits, base)
    if counters is not None:
        counters.digit_adds += len(digits)
    return wrap(digits, base)


def mul_by_digit(a: Natural, d: int, counters: OpCounters | None = None) -> Natural:
    """Multiply a multi-digit value by one digit of the same base."""
    if type(d) is not int or not 0 <= d < a.base:
        raise ValueError(f"{d!r} is not a base-{a.base} digit")
    digits = _kernels_py.mul_by_digit(a.digits, d, a.base)
    if counters is not None:
        counters.digit_mults += len(a)
        counters.digit_adds += len(a)
    return wrap(digits, a.base)


def divmod_base(n: Natural) -> tuple[Natural, int]:
    """(n with the units digit removed, units digit)."""
    q, r = _kernels_py.divmod_base(n.digits)
    return wrap(q, n.base), r


def shift(n: Natural, k: int) -> Natural:
    """n * base**k; zero shifts to zero without phantom digits."""
    if type(k) is not int or k < 0:
        raise ValueError(f"shift count must be a non-negative int, got {k!r}")
    return wrap(_kernels_py.shift(n.digits, k), n.base)
