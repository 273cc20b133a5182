"""Structured comparison of the two algorithms on one input pair, and its
text and canonical-JSON renderings.

Counters and the retained-intermediate metric are deterministic functions
of the input shape; wall-clock medians are informational only and never
asserted anywhere, since both algorithms do the same Θ(len(a)·len(b)) digit
work and micro-timings depend on the environment.
"""

import statistics
import time

from carrymul.algorithms import INCREMENTAL, SCHOOLBOOK, TRACED
from carrymul.digits import Natural, Record, check_count, require_same_base
from carrymul.trace_io import SCHEMA_VERSION, dumps_canonical


class BenchReport(Record):
    """compare_algorithms' result; each dict maps algorithm name to a value."""

    __slots__ = (
        "base",
        "len_a",
        "len_b",
        "reps",
        "counters",
        "retained",
        "stored",
        "final_sum_adds",
        "median_s",
    )


def retained_intermediates(algorithm: str, len_b: int) -> int:
    """Peak number of digit-vector values alive at once (proxy metric).

    Schoolbook keeps every one of its len(b) partial-product rows until the
    final sum, where an accumulator joins them: len(b) + 1.  The incremental
    algorithm only ever holds the current carry and the sum being split: 2.
    With zero or one multiplier digit there is nothing to accumulate and
    both collapse to a single live value.  This is a defined proxy for the
    working-set difference, not a measured allocator quantity.
    """
    if len_b <= 1:
        return 1
    return 2 if algorithm == INCREMENTAL else len_b + 1


def stored_intermediates(algorithm: str, len_b: int) -> int:
    """Intermediates each algorithm stores for later: rows vs the carry."""
    if algorithm == SCHOOLBOOK:
        return len_b
    return 1 if len_b else 0


def compare_algorithms(a: Natural, b: Natural, reps: int = 1) -> BenchReport:
    base = require_same_base(a, b)
    check_count("reps", reps)

    counters = {}
    medians = {}
    for alg, run in TRACED.items():
        times = []
        trace = None
        for _ in range(reps):
            started = time.perf_counter()
            trace = run(a, b)
            times.append(time.perf_counter() - started)
        counters[alg] = trace.counters
        medians[alg] = statistics.median(times)

    len_a, len_b = len(a.digits), len(b.digits)
    # schoolbook's summation phase is everything beyond the in-row carries
    school_final = counters[SCHOOLBOOK].digit_adds - len_a * len_b
    return BenchReport(
        base=base,
        len_a=len_a,
        len_b=len_b,
        reps=reps,
        counters=counters,
        retained={alg: retained_intermediates(alg, len_b) for alg in TRACED},
        stored={alg: stored_intermediates(alg, len_b) for alg in TRACED},
        final_sum_adds={INCREMENTAL: 0, SCHOOLBOOK: school_final},
        median_s=medians,
    )


def bench_to_document(report: BenchReport) -> dict:
    counters = {alg: c._asdict() for alg, c in report.counters.items()}
    return {"schema_version": SCHEMA_VERSION, **report._asdict(), "counters": counters}


def render_bench_json(report: BenchReport) -> str:
    return dumps_canonical(bench_to_document(report))


def render_bench_text(report: BenchReport) -> str:
    """One row per algorithm: its counters, each right-aligned under its
    name, then retained, stored and the median time."""
    counters = {alg: report.counters[alg]._asdict() for alg in TRACED}
    lines = [
        f"operands: {report.len_a} digits × {report.len_b} digits, base {report.base}",
        f"reps: {report.reps}",
        f"{'algorithm':<12} {' '.join(counters[INCREMENTAL])} retained stored "
        f"{'median_s':>12}",
    ]
    for alg, counts in counters.items():
        cells = " ".join(f"{value:>{len(name)}}" for name, value in counts.items())
        lines.append(
            f"{alg:<12} {cells} {report.retained[alg]:>8} {report.stored[alg]:>6} "
            f"{report.median_s[alg]:>12.3e}"
        )
    adds = ", ".join(f"{alg} {report.final_sum_adds[alg]}" for alg in TRACED)
    lines.append(f"final-phase adds: {adds}")
    return "\n".join(lines)
