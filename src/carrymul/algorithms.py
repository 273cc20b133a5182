"""The two multiplication algorithms and the runtime invariant checker.

The incremental algorithm walks the multiplier's digits from the units up.
Step k multiplies the whole multiplicand by that digit, adds the carry left
by the previous step, emits the units digit of the sum as result digit k and
carries the rest (a value that may be as long as the multiplicand) into the
next step.  The final carry, placed above the emitted digits, completes the
product, so no partial-product rows are ever stored.

The schoolbook algorithm is the classical contrast: it builds every shifted
partial-product row first and adds them all at the end.

``incremental_multiply`` and ``schoolbook_multiply`` record a full Trace so
the work can be replayed, rendered and audited; they, ``check_invariant``
and the operation counters stay digit-level.  ``multiply`` returns the
product alone, from a kernel that records nothing and whose memory stays
linear in the operand lengths (``_kernels_py.incremental_product`` and the
README describe how it works).
"""

from carrymul import _kernels_py, kernels
from carrymul.digits import Natural, Record, check_digits, require_same_base, wrap
from carrymul.errors import WrongAlgorithm

INCREMENTAL = "incremental"
SCHOOLBOOK = "schoolbook"
ALGORITHMS = (INCREMENTAL, SCHOOLBOOK)


class StepRecord(Record):
    """One incremental step: full sum s, emitted digit r, outgoing carry."""

    __slots__ = ("k", "s", "r", "c_next")


class OpCounters(Record):
    """Digit operations of one traced run, counted by the kernels in closed
    form (see _kernels_py): digit_mults is len(a)*len(b), zeros included;
    digit_adds is len(a)*len(b), one carry absorbed per digit product, plus
    one per digit of each sum after the first (each step sum s_k, k >= 1,
    or each running row sum after row 0)."""

    __slots__ = ("digit_mults", "digit_adds")


class Trace(Record):
    """One traced run: steps for incremental only, rows for schoolbook only."""

    __slots__ = ("algorithm", "base", "a", "b", "steps", "rows", "result", "counters")


def incremental_multiply(a: Natural, b: Natural) -> Trace:
    """Run the incremental algorithm, recording every step.

    A zero multiplier (empty digit vector) yields an empty step list and a
    zero result; a zero multiplicand runs the ordinary path with every sum,
    digit and carry at zero.
    """
    base = require_same_base(a, b)
    raw_steps = list(kernels.impl.incremental_steps(a.digits, b.digits, base))
    result, mults, adds = _kernels_py.tally(a.digits, b.digits, raw_steps)
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
    digits of the multiplier, and the step's recorded sum equals its emitted
    digit plus base times that carry.  The right side is recomputed from
    the multiplicand and the multiplier alone with exact digit-vector
    arithmetic; each step's sum, emitted digit and carry are only read back
    and compared.
    """
    if trace.algorithm != INCREMENTAL:
        raise WrongAlgorithm(trace.algorithm)
    # the kernels read a, b and each sum and carry in trace.base (a Trace
    # has a base)
    steps = trace.steps
    for n in (trace.a, trace.b, *[s.s for s in steps], *[s.c_next for s in steps]):
        require_same_base(n, trace)
    # r is a bare int a caller may have set; s and c_next are Naturals
    check_digits([s.r for s in trace.steps], trace.base)
    raw_steps = [(s.s.digits, s.r, s.c_next.digits) for s in trace.steps]
    return kernels.impl.check_invariant(
        trace.a.digits, trace.b.digits, raw_steps, trace.base
    )


# algorithm name -> the function that runs it and returns its Trace
TRACED = {INCREMENTAL: incremental_multiply, SCHOOLBOOK: schoolbook_multiply}


def multiply(a: Natural, b: Natural, algorithm: str = INCREMENTAL) -> Natural:
    """Product of a and b via the chosen algorithm.

    The incremental product comes from ``incremental_product``, which keeps
    no steps (see its docstring in ``_kernels_py``); schoolbook still builds
    its Trace, since storing every row is what defines it.
    """
    if algorithm not in TRACED:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm != INCREMENTAL:
        return TRACED[algorithm](a, b).result
    base = require_same_base(a, b)
    return wrap(kernels.impl.incremental_product(a.digits, b.digits, base), base)
