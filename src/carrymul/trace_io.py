"""Text and canonical-JSON renderings of traces, and the trace reader.

Canonical JSON means sorted keys, no insignificant whitespace and a single
trailing newline, so a parse/re-serialize round trip is byte-identical and
golden files stay stable.  Every operand, sum, carry and result serializes
as a digit string in the operand base; the base itself, step indices and
counters are plain integers.  SCHEMA_VERSION bumps on any field change.
The verify and bench documents are rendered next to their report types,
in ``carrymul.oracle`` and ``carrymul.bench``, with the two helpers here.
"""

import json
import re
from itertools import filterfalse

from carrymul.algorithms import INCREMENTAL, SCHOOLBOOK, OpCounters, Trace
from carrymul.digits import ALPHABET, MAX_BASE, MIN_BASE

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
        "counters": trace.counters._asdict(),
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
_COUNTER_FIELDS = dict.fromkeys(OpCounters.__slots__, int)
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
    """Load and validate a serialized trace document: every field has its
    JSON type, the base is supported, the counters are non-negative, step k
    sits at index k and emits one glyph, and every digit string is one that
    render_natural writes (lowercase, no leading zero, "0" for zero)."""
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
    base = doc["base"]
    if not MIN_BASE <= base <= MAX_BASE:
        raise ValueError(f"base must be in {MIN_BASE}..{MAX_BASE}, got {base}")
    if any(doc["counters"][name] < 0 for name in _COUNTER_FIELDS):
        raise ValueError("counters must be >= 0")
    numbers = [doc["a"], doc["b"], doc["result"]]
    if algorithm == INCREMENTAL:
        for k, step in enumerate(doc["steps"]):
            _require_fields(step, _STEP_FIELDS, "step")
            if step["k"] != k or len(step["r"]) != 1:
                raise ValueError(f"step {k} needs k={k} and a one-glyph r")
            numbers += (step["s"], step["r"], step["c_next"])
    elif all(type(row) is str for row in doc["rows"]):
        numbers += doc["rows"]
    else:
        raise ValueError("rows must be digit strings")
    canonical = re.compile(f"0|[{ALPHABET[1:base]}][{ALPHABET[:base]}]*").fullmatch
    for bad in filterfalse(canonical, numbers):
        raise ValueError(f"{bad!r} is not a canonical base-{base} number")
    return doc
