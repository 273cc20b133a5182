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

import importlib

from carrymul import errors
from carrymul.algorithms import (
    ALGORITHMS,
    INCREMENTAL,
    SCHOOLBOOK,
    OpCounters,
    StepRecord,
    Trace,
    check_invariant,
    incremental_multiply,
    multiply,
    schoolbook_multiply,
)
from carrymul.digits import (
    MAX_BASE,
    MIN_BASE,
    Natural,
    from_int,
    parse_natural,
    render_natural,
    to_int,
)
from carrymul.kernels import BACKEND, available_backends

# Verify, bench and report rendering load on first use (PEP 562), so the
# mul and trace paths never import or compile them: name -> submodule.
_LAZY = {
    "oracle": "oracle",
    "SplitMix64": "oracle",
    "VerifyReport": "oracle",
    "exhaustive_check": "oracle",
    "oracle_multiply": "oracle",
    "random_check": "oracle",
    "render_report_json": "oracle",
    "render_report_text": "oracle",
    "bench": "bench",
    "BenchReport": "bench",
    "compare_algorithms": "bench",
    "trace_io": "trace_io",
    "render_trace_json": "trace_io",
    "render_trace_text": "trace_io",
}


def __getattr__(name):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{submodule}")
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BACKEND",
    "BenchReport",
    "INCREMENTAL",
    "MAX_BASE",
    "MIN_BASE",
    "Natural",
    "OpCounters",
    "SCHOOLBOOK",
    "SplitMix64",
    "StepRecord",
    "Trace",
    "VerifyReport",
    "available_backends",
    "check_invariant",
    "compare_algorithms",
    "errors",
    "exhaustive_check",
    "from_int",
    "incremental_multiply",
    "multiply",
    "oracle_multiply",
    "parse_natural",
    "random_check",
    "render_natural",
    "render_report_json",
    "render_report_text",
    "render_trace_json",
    "render_trace_text",
    "schoolbook_multiply",
    "to_int",
]
