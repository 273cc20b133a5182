"""Algorithm-independent ground truth and the differential check drivers.

The oracle multiplies by digit-serial double-and-add built on digit-vector
addition alone.  It builds the doublings a * 2**i once, one per bit of a
digit, then walks b from its top digit by Horner's rule: acc = acc * base
plus the doublings that the bits of the digit select, where * base is a
one-place shift of acc.  It never runs the digit multiply, carry split or
row shift of the algorithms, but it does share the digit adder with them
(incremental's carry add, schoolbook's row sum).  The plain int route,
which every pair also checks, shares no code with the kernels.  The
drivers run both algorithms, the oracle and int arithmetic over every
pair and aggregate any disagreement into a VerifyReport, which renders here
as text and as canonical JSON (see ``carrymul.trace_io``).

Reproducibility: random_check draws from SplitMix64, a small documented
generator, so the same (seed, parameters) produce the same pairs on any
platform.  Constants and draw order are fixed below; changing either is a
breaking change to recorded reports.
"""

import time

from carrymul import kernels
from carrymul.digits import (
    MAX_BASE,
    MIN_BASE,
    Natural,
    Record,
    check_base,
    check_count,
    int_from_digits,
    int_to_digits,
    render_digits,
    require_same_base,
    wrap,
)
from carrymul.trace_io import SCHEMA_VERSION, dumps_canonical

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
        # a bool would seed as 0 or 1, and a float fail later with a bare TypeError
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bounded(self, n: int) -> int:
        """Uniform draw from 0..n-1; n must be an int >= 1."""
        check_count("n", n)
        return self.next_u64() % n


class Mismatch(Record):
    """One pair where the routes disagreed (all values rendered)."""

    __slots__ = ("a", "b", "base", "expected", "incremental", "schoolbook", "oracle")


class InvariantFailure(Record):
    """One pair whose incremental trace broke the invariant at this step."""

    __slots__ = ("a", "b", "base", "step")


class VerifyReport(Record):
    """A verify run, built once at its end: mode "exhaustive" or "random",
    its params, and its findings as tuples sorted by base, then operands
    (then step)."""

    __slots__ = (
        "mode",
        "params",
        "pairs_checked",
        "mismatches",
        "invariant_failures",
        "elapsed_s",
    )

    def ok(self) -> bool:
        return not self.mismatches and not self.invariant_failures


def report_to_document(report: VerifyReport) -> dict:
    """Canonical document; elapsed time is informational and omitted so the
    serialization is byte-reproducible from the seed."""
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": report.mode,
        "params": dict(report.params),
        "pairs_checked": report.pairs_checked,
        "mismatches": [m._asdict() for m in report.mismatches],
        "invariant_failures": [f._asdict() for f in report.invariant_failures],
    }


def render_report_json(report: VerifyReport) -> str:
    return dumps_canonical(report_to_document(report))


def render_report_text(report: VerifyReport) -> str:
    lines = [f"mode: {report.mode}"]
    for key, value in report.params.items():
        if key == "bases":
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}: {value}")
    lines.append(f"pairs checked: {report.pairs_checked}")
    for title, items in (
        ("mismatches", report.mismatches),
        ("invariant failures", report.invariant_failures),
    ):
        lines.append(f"{title}: {len(items)}")
        for item in items:
            lines.append("  " + " ".join(f"{k}={v}" for k, v in item._asdict().items()))
    lines.append(f"elapsed: {report.elapsed_s:.3f}s")
    lines.append(f"status: {'OK' if report.ok() else 'FAIL'}")
    return "\n".join(lines)


def oracle_multiply(a: Natural, b: Natural) -> Natural:
    base = require_same_base(a, b)
    return wrap(kernels.impl.oracle_mul(a.digits, b.digits, base), base)


def _check_pair(ad, bd, base, expected, mismatches, failures):
    """Run all four routes over one raw digit pair and append any
    disagreement to mismatches and any broken step to failures.

    The incremental value is the product of ``incremental_product``, the
    kernel behind ``multiply``.  The traced steps go straight into the
    invariant checker and are certified by its flags alone: the last flag
    holds exactly when the emitted digits plus the final carry equal a·b,
    and a step list shorter than b fails at its first missing step."""
    impl = kernels.impl
    flags = impl.check_invariant(ad, bd, impl.incremental_steps(ad, bd, base), base)
    if len(flags) < len(bd):
        flags.append(False)
    res_inc = impl.incremental_product(ad, bd, base)
    _, res_sch, _, _ = impl.schoolbook(ad, bd, base)
    res_orc = impl.oracle_mul(ad, bd, base)

    value = int_from_digits(res_inc, base)
    if res_inc != res_sch or res_inc != res_orc or value != expected:
        mismatches.append(
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

    for k, okay in enumerate(flags):
        if not okay:
            failures.append(
                InvariantFailure(
                    a=render_digits(ad, base),
                    b=render_digits(bd, base),
                    base=base,
                    step=k,
                )
            )


def _verify(mode, params, pairs) -> VerifyReport:
    """Check every (a digits, b digits, base, a·b) item of pairs and build
    the report, its findings in one order however the pairs were made."""
    started = time.perf_counter()
    mismatches, failures = [], []
    checked = 0
    for ad, bd, base, expected in pairs:
        _check_pair(ad, bd, base, expected, mismatches, failures)
        checked += 1
    mismatches.sort(key=lambda m: (m.base, int(m.a, m.base), int(m.b, m.base)))
    failures.sort(key=lambda f: (f.base, int(f.a, f.base), int(f.b, f.base), f.step))
    elapsed = time.perf_counter() - started
    return VerifyReport(mode, params, checked, tuple(mismatches), tuple(failures), elapsed)


def exhaustive_check(limit: int, base: int = 10) -> VerifyReport:
    """Check every pair (x, y) with 0 <= x, y < limit against all routes."""
    check_base(base)
    check_count("limit", limit)
    vectors = [int_to_digits(x, base) for x in range(limit)]
    pairs = (
        (ad, bd, base, x * y)
        for x, ad in enumerate(vectors)
        for y, bd in enumerate(vectors)
    )
    return _verify("exhaustive", {"limit": limit, "base": base}, pairs)


def random_check(trials: int, max_digits: int, bases, seed: int) -> VerifyReport:
    """Check seeded random pairs of up to max_digits digits.

    Draw order per trial (each draw one bounded() call): base from the
    sorted base list, len(a) and len(b) from 1..max_digits, then the digits
    of a and of b from the units up, the top digit from 1..base-1 so the
    vector is canonical at exactly the drawn length.
    """
    check_count("trials", trials)
    check_count("max_digits", max_digits)
    rng = SplitMix64(seed)
    # check every base as given, before the set merges 10.0 into 10
    base_list = sorted({check_base(b) for b in bases})
    if not base_list:
        raise ValueError("need at least one base")

    def draw(base, length):
        digits = [rng.bounded(base) for _ in range(length - 1)]
        digits.append(1 + rng.bounded(base - 1))
        return digits

    def pairs():
        for _ in range(trials):
            base = base_list[rng.bounded(len(base_list))]
            la = 1 + rng.bounded(max_digits)
            lb = 1 + rng.bounded(max_digits)
            ad = draw(base, la)
            bd = draw(base, lb)
            yield ad, bd, base, int_from_digits(ad, base) * int_from_digits(bd, base)

    params = {"trials": trials, "max_digits": max_digits, "bases": base_list, "seed": seed}
    return _verify("random", params, pairs())


def all_bases() -> range:
    """Every supported base, for random sweeps."""
    return range(MIN_BASE, MAX_BASE + 1)
