"""Structured comparison of the two algorithms on one input pair.

Counters and the retained-intermediate metric are deterministic functions
of the input shape; wall-clock medians are informational only and never
asserted anywhere, since both algorithms do the same Θ(len(a)·len(b)) digit
work and micro-timings depend on the environment.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from carrymul.algorithms import INCREMENTAL, SCHOOLBOOK, TRACED
from carrymul.arith import OpCounters
from carrymul.digits import Natural, require_same_base


@dataclass
class BenchReport:
    base: int
    len_a: int
    len_b: int
    reps: int
    counters: dict[str, OpCounters]
    retained: dict[str, int]
    stored: dict[str, int]
    final_sum_adds: dict[str, int]
    median_s: dict[str, float]


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
    if reps < 1:
        raise ValueError("reps must be >= 1")

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
