"""The two multiplication algorithms and the runtime invariant checker.

The incremental algorithm walks the multiplier's digits from the units up.
Step k multiplies the whole multiplicand by that digit, adds the carry left
by the previous step, emits the units digit of the sum as result digit k and
carries the rest (a value that may be as long as the multiplicand) into the
next step.  The final carry, placed above the emitted digits, completes the
product, so no partial-product rows are ever stored.

The schoolbook algorithm is the classical contrast: it builds every shifted
partial-product row first and adds them all at the end.

Both record a full Trace so the work can be replayed, rendered and audited.
"""

from __future__ import annotations

from dataclasses import dataclass

from carrymul import kernels
from carrymul.arith import OpCounters
from carrymul.digits import Natural, check_digits, require_same_base, wrap
from carrymul.errors import WrongAlgorithm

INCREMENTAL = "incremental"
SCHOOLBOOK = "schoolbook"
ALGORITHMS = (INCREMENTAL, SCHOOLBOOK)


@dataclass(frozen=True)
class StepRecord:
    """One incremental step: full sum s, emitted digit r, outgoing carry."""

    k: int
    s: Natural
    r: int
    c_next: Natural


@dataclass(frozen=True)
class Trace:
    algorithm: str
    base: int
    a: Natural
    b: Natural
    steps: tuple[StepRecord, ...]  # incremental only
    rows: tuple[Natural, ...]  # schoolbook only
    result: Natural
    counters: OpCounters


def incremental_multiply(a: Natural, b: Natural) -> Trace:
    """Run the incremental algorithm, recording every step.

    A zero multiplier (empty digit vector) yields an empty step list and a
    zero result; a zero multiplicand runs the ordinary path with every sum,
    digit and carry at zero.
    """
    base = require_same_base(a, b)
    raw_steps, result, mults, adds = kernels.impl.incremental(a.digits, b.digits, base)
    steps = tuple(
        StepRecord(k, wrap(s, base), r, wrap(c, base))
        for k, (s, r, c) in enumerate(raw_steps)
    )
    return Trace(
        algorithm=INCREMENTAL,
        base=base,
        a=a,
        b=b,
        steps=steps,
        rows=(),
        result=wrap(result, base),
        counters=OpCounters(mults, adds),
    )


def schoolbook_multiply(a: Natural, b: Natural) -> Trace:
    base = require_same_base(a, b)
    raw_rows, result, mults, adds = kernels.impl.schoolbook(a.digits, b.digits, base)
    return Trace(
        algorithm=SCHOOLBOOK,
        base=base,
        a=a,
        b=b,
        steps=(),
        rows=tuple(wrap(row, base) for row in raw_rows),
        result=wrap(result, base),
        counters=OpCounters(mults, adds),
    )


def check_invariant(trace: Trace) -> list[bool]:
    """Re-derive the per-step invariant of an incremental trace.

    Entry k is True iff the digits emitted through step k plus the shifted
    outgoing carry equal the product of the multiplicand with the low k+1
    digits of the multiplier.  Both sides are recomputed with exact
    digit-vector arithmetic; only each step's emitted digit and carry are
    read back, never its recorded sum.
    """
    if trace.algorithm != INCREMENTAL:
        raise WrongAlgorithm(trace.algorithm)
    # r is a bare int a caller may have set; s and c_next are Naturals
    check_digits([s.r for s in trace.steps], trace.base)
    raw_steps = [(s.s.digits, s.r, s.c_next.digits) for s in trace.steps]
    return kernels.impl.check_invariant(
        trace.a.digits, trace.b.digits, raw_steps, trace.base
    )


# algorithm name -> the function that runs it and returns its Trace
TRACED = {INCREMENTAL: incremental_multiply, SCHOOLBOOK: schoolbook_multiply}


def multiply(a: Natural, b: Natural, algorithm: str = INCREMENTAL) -> Natural:
    """Product of a and b via the chosen algorithm."""
    if algorithm not in TRACED:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return TRACED[algorithm](a, b).result
