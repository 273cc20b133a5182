"""Exact arbitrary-base natural-number multiplication.

Two algorithms over canonical digit vectors in any base from 2 to 36: an
incremental scheme that emits one product digit per multiplier digit while
carrying a multi-digit remainder, and the classical schoolbook method for
comparison.  A per-step invariant checker, an independent double-and-add
oracle, differential verification drivers and digit-operation counters make
every claim about the algorithms directly testable.

The hot digit kernels run on a small hand-written C extension when it is
built and fall back to the pure-Python spec otherwise; see
``carrymul.kernels``.
"""

from carrymul import errors
from carrymul.algorithms import (
    ALGORITHMS,
    INCREMENTAL,
    SCHOOLBOOK,
    StepRecord,
    Trace,
    check_invariant,
    incremental_multiply,
    multiply,
    schoolbook_multiply,
)
from carrymul.arith import OpCounters, add, divmod_base, mul_by_digit, shift
from carrymul.bench import BenchReport, compare_algorithms
from carrymul.digits import (
    EQUAL,
    GREATER,
    LESS,
    MAX_BASE,
    MIN_BASE,
    Natural,
    compare,
    from_int,
    parse_natural,
    render_natural,
    normalize,
    to_int,
)
from carrymul.kernels import BACKEND, available_backends
from carrymul.oracle import (
    SplitMix64,
    VerifyReport,
    exhaustive_check,
    oracle_multiply,
    random_check,
)
from carrymul.trace_io import (
    render_report_json,
    render_report_text,
    render_trace_json,
    render_trace_text,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BACKEND",
    "BenchReport",
    "EQUAL",
    "GREATER",
    "INCREMENTAL",
    "LESS",
    "MAX_BASE",
    "MIN_BASE",
    "Natural",
    "OpCounters",
    "SCHOOLBOOK",
    "SplitMix64",
    "StepRecord",
    "Trace",
    "VerifyReport",
    "add",
    "available_backends",
    "check_invariant",
    "compare",
    "compare_algorithms",
    "divmod_base",
    "errors",
    "exhaustive_check",
    "from_int",
    "incremental_multiply",
    "mul_by_digit",
    "multiply",
    "normalize",
    "oracle_multiply",
    "parse_natural",
    "random_check",
    "render_natural",
    "render_report_json",
    "render_report_text",
    "render_trace_json",
    "render_trace_text",
    "schoolbook_multiply",
    "shift",
    "to_int",
]
