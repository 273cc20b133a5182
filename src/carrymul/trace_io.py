"""Text and canonical-JSON renderings of traces, verify reports and benches.

Canonical JSON means sorted keys, no insignificant whitespace and a single
trailing newline, so a parse/re-serialize round trip is byte-identical and
golden files stay stable.  Every operand, sum, carry and result serializes
as a digit string in the operand base; the base itself, step indices and
counters are plain integers.  SCHEMA_VERSION bumps on any field change.
"""

from __future__ import annotations

import json

from carrymul.algorithms import INCREMENTAL, SCHOOLBOOK, Trace
from carrymul.digits import ALPHABET

# VerifyReport (carrymul.oracle) and BenchReport (carrymul.bench) appear in
# annotations only, which are never evaluated, so rendering a trace loads
# neither the verify nor the bench layer.

SCHEMA_VERSION = "1"


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- traces ------------------------------------------------------------


def render_trace_text(trace: Trace) -> str:
    """Worked-example layout, one line per step.

    Incremental steps read
        S_k = A × b_k [+ c_k] = S; r_k = r; c_{k+1} = c
    with the carry addend omitted at k = 0 (there is none yet).  Schoolbook
    rows read  P_j = A × b_j [× base^j] = row.  Both end with the product
    line  R = result.
    """
    a_str = str(trace.a)
    lines = []
    if trace.algorithm == INCREMENTAL:
        for step in trace.steps:
            b_glyph = ALPHABET[trace.b.digits[step.k]]
            carry_in = "" if step.k == 0 else f" + {trace.steps[step.k - 1].c_next}"
            lines.append(
                f"S_{step.k} = {a_str} × {b_glyph}{carry_in} = {step.s}; "
                f"r_{step.k} = {ALPHABET[step.r]}; c_{step.k + 1} = {step.c_next}"
            )
    else:
        for j, row in enumerate(trace.rows):
            b_glyph = ALPHABET[trace.b.digits[j]]
            shift_part = "" if j == 0 else f" × {trace.base}^{j}"
            lines.append(f"P_{j} = {a_str} × {b_glyph}{shift_part} = {row}")
    lines.append(f"R = {trace.result}")
    return "\n".join(lines)


def trace_to_document(trace: Trace) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": trace.algorithm,
        "base": trace.base,
        "a": str(trace.a),
        "b": str(trace.b),
        "result": str(trace.result),
        "counters": {
            "digit_mults": trace.counters.digit_mults,
            "digit_adds": trace.counters.digit_adds,
        },
    }
    if trace.algorithm == INCREMENTAL:
        doc["steps"] = [
            {"k": s.k, "s": str(s.s), "r": ALPHABET[s.r], "c_next": str(s.c_next)}
            for s in trace.steps
        ]
    else:
        doc["rows"] = [str(row) for row in trace.rows]
    return doc


def render_trace_json(trace: Trace) -> str:
    return dumps_canonical(trace_to_document(trace))


# field -> its exact JSON type; type() and not isinstance, so true is no int
_TRACE_FIELDS = {"base": int, "a": str, "b": str, "result": str, "counters": dict}
_COUNTER_FIELDS = {"digit_mults": int, "digit_adds": int}
_STEP_FIELDS = {"k": int, "s": str, "r": str, "c_next": str}


def _require_fields(obj, fields: dict, what: str):
    """Raise ValueError unless obj is a JSON object holding every field with
    its JSON type."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    for name, kind in fields.items():
        if type(obj.get(name)) is not kind:
            raise ValueError(f"{what} needs a {kind.__name__} {name!r}")


def parse_trace_document(text: str) -> dict:
    """Load and validate a serialized trace document."""
    doc = json.loads(text)
    _require_fields(doc, {}, "trace document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    algorithm = doc.get("algorithm")
    if algorithm not in (INCREMENTAL, SCHOOLBOOK):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    listed = "steps" if algorithm == INCREMENTAL else "rows"
    _require_fields(doc, {**_TRACE_FIELDS, listed: list}, "trace document")
    _require_fields(doc["counters"], _COUNTER_FIELDS, "counters")
    if algorithm == INCREMENTAL:
        for entry in doc["steps"]:
            _require_fields(entry, _STEP_FIELDS, "step")
    elif not all(type(row) is str for row in doc["rows"]):
        raise ValueError("rows must be digit strings")
    return doc


# -- verify reports ----------------------------------------------------


def report_to_document(report: VerifyReport) -> dict:
    """Canonical document; elapsed time is informational and omitted so the
    serialization is byte-reproducible from the seed."""
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": report.mode,
        "params": dict(report.params),
        "pairs_checked": report.pairs_checked,
        "mismatches": [
            {
                "a": m.a,
                "b": m.b,
                "base": m.base,
                "expected": m.expected,
                "incremental": m.incremental,
                "schoolbook": m.schoolbook,
                "oracle": m.oracle,
            }
            for m in report.mismatches
        ],
        "invariant_failures": [
            {"a": f.a, "b": f.b, "base": f.base, "step": f.step}
            for f in report.invariant_failures
        ],
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
    lines.append(f"mismatches: {len(report.mismatches)}")
    for m in report.mismatches:
        lines.append(
            f"  a={m.a} b={m.b} base={m.base} expected={m.expected} "
            f"incremental={m.incremental} schoolbook={m.schoolbook} oracle={m.oracle}"
        )
    lines.append(f"invariant failures: {len(report.invariant_failures)}")
    for f in report.invariant_failures:
        lines.append(f"  a={f.a} b={f.b} base={f.base} step={f.step}")
    lines.append(f"elapsed: {report.elapsed_s:.3f}s")
    lines.append(f"status: {'OK' if report.ok() else 'FAIL'}")
    return "\n".join(lines)


# -- bench reports -----------------------------------------------------


def bench_to_document(report: BenchReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "base": report.base,
        "len_a": report.len_a,
        "len_b": report.len_b,
        "reps": report.reps,
        "counters": {
            alg: {"digit_mults": c.digit_mults, "digit_adds": c.digit_adds}
            for alg, c in report.counters.items()
        },
        "retained": dict(report.retained),
        "stored": dict(report.stored),
        "final_sum_adds": dict(report.final_sum_adds),
        "median_s": dict(report.median_s),
    }


def render_bench_json(report: BenchReport) -> str:
    return dumps_canonical(bench_to_document(report))


def render_bench_text(report: BenchReport) -> str:
    lines = [
        f"operands: {report.len_a} digits × {report.len_b} digits, base {report.base}",
        f"reps: {report.reps}",
        f"{'algorithm':<12} {'digit_mults':>11} {'digit_adds':>10} "
        f"{'retained':>8} {'stored':>6} {'median_s':>12}",
    ]
    for alg in (INCREMENTAL, SCHOOLBOOK):
        c = report.counters[alg]
        lines.append(
            f"{alg:<12} {c.digit_mults:>11} {c.digit_adds:>10} "
            f"{report.retained[alg]:>8} {report.stored[alg]:>6} "
            f"{report.median_s[alg]:>12.3e}"
        )
    lines.append(
        "final-phase adds: incremental "
        f"{report.final_sum_adds[INCREMENTAL]}, schoolbook "
        f"{report.final_sum_adds[SCHOOLBOOK]}"
    )
    return "\n".join(lines)
