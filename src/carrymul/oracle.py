"""Algorithm-independent ground truth and the differential check drivers.

The oracle multiplies by binary double-and-add built on digit-vector
addition alone, so a bug in the multiplication kernels cannot hide inside
it.  The drivers run both algorithms, the oracle and plain int arithmetic
over every pair and aggregate any disagreement into a VerifyReport.

Reproducibility: random_check draws from SplitMix64, a small documented
generator, so the same (seed, parameters) produce the same pairs on any
platform.  Constants and draw order are fixed below; changing either is a
breaking change to recorded reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from carrymul import kernels
from carrymul.digits import (
    MAX_BASE,
    MIN_BASE,
    Natural,
    check_base,
    int_from_digits,
    int_to_digits,
    render_digits,
    require_same_base,
    wrap,
)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG (public-domain constants).

    state' = state + 0x9E3779B97F4A7C15 (mod 2**64); the output mixes the
    new state with xorshifts and the multipliers 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB.  bounded(n) reduces next_u64() modulo n; the bias
    is below 2**-57 for every n used here and the reduction is part of the
    documented contract.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bounded(self, n: int) -> int:
        """Uniform draw from 0..n-1."""
        return self.next_u64() % n


@dataclass(frozen=True)
class Mismatch:
    """One pair where the routes disagreed (all values rendered)."""

    a: str
    b: str
    base: int
    expected: str
    incremental: str
    schoolbook: str
    oracle: str


@dataclass(frozen=True)
class InvariantFailure:
    a: str
    b: str
    base: int
    step: int


@dataclass
class VerifyReport:
    mode: str  # "exhaustive" | "random"
    params: dict
    pairs_checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    invariant_failures: list[InvariantFailure] = field(default_factory=list)
    elapsed_s: float = 0.0

    def ok(self) -> bool:
        return not self.mismatches and not self.invariant_failures


def oracle_multiply(a: Natural, b: Natural) -> Natural:
    base = require_same_base(a, b)
    return wrap(kernels.impl.oracle_mul(a.digits, b.digits, base), base)


def _check_pair(ad, bd, base, expected, report):
    """Run all four routes over one raw digit pair and record disagreements."""
    impl = kernels.impl
    steps, res_inc, _, _ = impl.incremental(ad, bd, base)
    _, res_sch, _, _ = impl.schoolbook(ad, bd, base)
    res_orc = impl.oracle_mul(ad, bd, base)

    value = int_from_digits(res_inc, base)
    if res_inc != res_sch or res_inc != res_orc or value != expected:
        report.mismatches.append(
            Mismatch(
                a=render_digits(ad, base),
                b=render_digits(bd, base),
                base=base,
                expected=render_digits(int_to_digits(expected, base), base),
                incremental=render_digits(res_inc, base),
                schoolbook=render_digits(res_sch, base),
                oracle=render_digits(res_orc, base),
            )
        )

    flags = impl.check_invariant(ad, bd, steps, base)
    for k, okay in enumerate(flags):
        if not okay:
            report.invariant_failures.append(
                InvariantFailure(
                    a=render_digits(ad, base),
                    b=render_digits(bd, base),
                    base=base,
                    step=k,
                )
            )


def _finalize(report, started):
    # deterministic order regardless of how pairs were produced
    report.mismatches.sort(key=lambda m: (m.base, int(m.a, m.base), int(m.b, m.base)))
    report.invariant_failures.sort(
        key=lambda f: (f.base, int(f.a, f.base), int(f.b, f.base), f.step)
    )
    report.elapsed_s = time.perf_counter() - started
    return report


def exhaustive_check(limit: int, base: int = 10) -> VerifyReport:
    """Check every pair (x, y) with 0 <= x, y < limit against all routes."""
    check_base(base)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    started = time.perf_counter()
    report = VerifyReport(mode="exhaustive", params={"limit": limit, "base": base})
    vectors = [int_to_digits(x, base) for x in range(limit)]
    for x in range(limit):
        ad = vectors[x]
        for y in range(limit):
            _check_pair(ad, vectors[y], base, x * y, report)
    report.pairs_checked = limit * limit
    return _finalize(report, started)


def random_check(trials: int, max_digits: int, bases, seed: int) -> VerifyReport:
    """Check seeded random pairs of up to max_digits digits.

    Draw order per trial (each draw one bounded() call): base from the
    sorted base list, len(a) and len(b) from 1..max_digits, then the digits
    of a and of b from the units up, the top digit from 1..base-1 so the
    vector is canonical at exactly the drawn length.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_digits < 1:
        raise ValueError("max_digits must be >= 1")
    base_list = sorted(set(bases))
    for b in base_list:
        check_base(b)
    if not base_list:
        raise ValueError("need at least one base")
    started = time.perf_counter()
    report = VerifyReport(
        mode="random",
        params={
            "trials": trials,
            "max_digits": max_digits,
            "bases": base_list,
            "seed": seed,
        },
    )
    rng = SplitMix64(seed)

    def draw(base, length):
        digits = [rng.bounded(base) for _ in range(length - 1)]
        digits.append(1 + rng.bounded(base - 1))
        return digits

    for _ in range(trials):
        base = base_list[rng.bounded(len(base_list))]
        la = 1 + rng.bounded(max_digits)
        lb = 1 + rng.bounded(max_digits)
        ad = draw(base, la)
        bd = draw(base, lb)
        expected = int_from_digits(ad, base) * int_from_digits(bd, base)
        _check_pair(ad, bd, base, expected, report)
    report.pairs_checked = trials
    return _finalize(report, started)


def all_bases() -> range:
    """Every supported base, for random sweeps."""
    return range(MIN_BASE, MAX_BASE + 1)
