"""Text and canonical-JSON renderings of traces, and the trace reader.

Canonical JSON means sorted keys, no insignificant whitespace and a single
trailing newline, so a parse/re-serialize round trip is byte-identical and
golden files stay stable.  Every operand, sum, carry and result serializes
as a digit string in the operand base; the base itself, step indices and
counters are plain integers.  SCHEMA_VERSION bumps on any field change.
The verify and bench documents are rendered next to their report types,
in ``carrymul.oracle`` and ``carrymul.bench``, with the two helpers here.

Traces are written by hand, one formatter per format, so neither
``write_trace`` (the CLI's path) nor the ``render_trace_*`` functions load
``json``: every key is fixed and every value is an int or a string over
``0-9a-z``, so nothing needs escaping.  Only ``dumps_canonical`` and
``parse_trace_document`` import it.
"""

import re
from itertools import filterfalse

from carrymul import _kernels_py, kernels
from carrymul.algorithms import ALGORITHMS, INCREMENTAL, SCHOOLBOOK, OpCounters, Trace
from carrymul.digits import (
    ALPHABET,
    MAX_BASE,
    MIN_BASE,
    Natural,
    render_digits,
    require_same_base,
)

SCHEMA_VERSION = "1"


def dumps_canonical(doc) -> str:
    import json

    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- traces ------------------------------------------------------------


class _Text:
    """Worked-example layout, one line per step, written as it comes.

    Incremental steps read
        S_k = A × b_k [+ c_k] = S; r_k = r; c_{k+1} = c
    with the carry addend omitted at k = 0 (there is none yet).  Schoolbook
    rows read  P_j = A × b_j [× base^j] = row.  Both end with the product
    line  R = result.
    """

    def __init__(self, algorithm, a, b, base, write):
        self.a, self.b, self.base, self.write = render_digits(a, base), b, base, write
        self.carry_in = ""

    def step(self, k, s, r, c):
        c = render_digits(c, self.base)
        self.write(
            f"S_{k} = {self.a} × {ALPHABET[self.b[k]]}{self.carry_in} = "
            f"{render_digits(s, self.base)}; r_{k} = {ALPHABET[r]}; c_{k + 1} = {c}\n"
        )
        self.carry_in = f" + {c}"

    def row(self, j, row):
        shift = f" × {self.base}^{j}" if j else ""
        self.write(
            f"P_{j} = {self.a} × {ALPHABET[self.b[j]]}{shift} = "
            f"{render_digits(row, self.base)}\n"
        )

    def end(self, result, mults, adds):
        self.write(f"R = {render_digits(result, self.base)}\n")


class _Json:
    """The canonical trace document.  Its sorted keys put "counters" and
    "result" before "steps" or "rows", so each step's or row's fragment is
    kept as it comes and the whole document is written at the end."""

    def __init__(self, algorithm, a, b, base, write):
        self.algorithm, self.a, self.b, self.base = algorithm, a, b, base
        self.write = write
        self.kept = []

    def step(self, k, s, r, c):
        self.kept.append(
            f'{{"c_next":"{render_digits(c, self.base)}","k":{k},'
            f'"r":"{ALPHABET[r]}","s":"{render_digits(s, self.base)}"}}'
        )

    def row(self, j, row):
        self.kept.append(f'"{render_digits(row, self.base)}"')

    def end(self, result, mults, adds):
        base, write = self.base, self.write
        write(
            f'{{"a":"{render_digits(self.a, base)}","algorithm":"{self.algorithm}",'
            f'"b":"{render_digits(self.b, base)}","base":{base},'
            f'"counters":{{"digit_adds":{adds},"digit_mults":{mults}}},'
            f'"result":"{render_digits(result, base)}",'
        )
        if self.algorithm == INCREMENTAL:
            write(f'"schema_version":"{SCHEMA_VERSION}","steps":[')
            close = "]}\n"
        else:
            write('"rows":[')
            close = f'],"schema_version":"{SCHEMA_VERSION}"}}\n'
        # one write per fragment: joining them would hold the document twice
        for i, fragment in enumerate(self.kept):
            write(f",{fragment}" if i else fragment)
        write(close)


_FORMATS = {"text": _Text, "json": _Json}


def _each(emit, steps):
    """Yield each step of steps after handing it, with its index, to emit."""
    for k, step in enumerate(steps):
        emit(k, *step)
        yield step


def write_trace(a: Natural, b: Natural, algorithm: str, fmt: str, write) -> None:
    """Write the trace of a * b in fmt ("text" or "json") through write,
    with the bytes of render_trace_* on the matching Trace (text ends with
    a newline), but building no Trace, StepRecord or per-step Natural.

    Incremental steps come from ``kernels.impl.incremental_steps``, which
    yields them one at a time on both backends, so only the last step and
    the rendered text are held.  The result and the counters come from
    ``_kernels_py.tally`` as the steps pass.  Schoolbook renders the rows
    its kernel returns, since storing every row is what defines it.
    """
    base = require_same_base(a, b)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    out = _FORMATS[fmt](algorithm, a.digits, b.digits, base, write)
    if algorithm == INCREMENTAL:
        steps = kernels.impl.incremental_steps(a.digits, b.digits, base)
        out.end(*_kernels_py.tally(a.digits, b.digits, _each(out.step, steps)))
    else:
        rows, result, mults, adds = kernels.impl.schoolbook(a.digits, b.digits, base)
        for j, row in enumerate(rows):
            out.row(j, row)
        out.end(result, mults, adds)


def _render(trace: Trace, fmt: str) -> str:
    """A Trace, written by the formatter that write_trace uses."""
    parts = []
    a, b = trace.a.digits, trace.b.digits
    out = _FORMATS[fmt](trace.algorithm, a, b, trace.base, parts.append)
    for step in trace.steps:
        out.step(step.k, step.s.digits, step.r, step.c_next.digits)
    for j, row in enumerate(trace.rows):
        out.row(j, row.digits)
    out.end(trace.result.digits, trace.counters.digit_mults, trace.counters.digit_adds)
    return "".join(parts)


def render_trace_text(trace: Trace) -> str:
    """The worked-example layout of ``_Text``, without the final newline."""
    return _render(trace, "text")[:-1]


def render_trace_json(trace: Trace) -> str:
    return _render(trace, "json")


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


def _length(number: str) -> int:
    """Digit count of a rendered number; zero, written "0", has none."""
    return 0 if number == "0" else len(number)


def parse_trace_document(text: str) -> dict:
    """Load and validate a serialized trace document: every field has its
    JSON type, the base is supported, the counters are non-negative, step k
    sits at index k and emits one glyph, and every digit string is one that
    render_natural writes (lowercase, no leading zero, "0" for zero).

    The printed numbers must also agree with each other, checked on the
    strings with no arithmetic: each step's s is its c_next followed by its
    r (r alone when c_next is "0"), digit_mults is len(a) * len(b), and an
    incremental document's digit_adds is that product plus the lengths of
    s_k for k >= 1, the closed form of ``_kernels_py.tally``.  A schoolbook
    document keeps no running sums, so only its digit_mults is checked."""
    import json

    doc = json.loads(text)
    _require_fields(doc, {}, "trace document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    algorithm = doc.get("algorithm")
    if algorithm not in ALGORITHMS:
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
    mults = adds = _length(doc["a"]) * _length(doc["b"])
    if algorithm == INCREMENTAL:
        for k, step in enumerate(doc["steps"]):
            _require_fields(step, _STEP_FIELDS, "step")
            s, r, c_next = step["s"], step["r"], step["c_next"]
            if step["k"] != k or len(r) != 1:
                raise ValueError(f"step {k} needs k={k} and a one-glyph r")
            if s != (r if c_next == "0" else c_next + r):
                raise ValueError(f"step {k}: s must be c_next followed by r")
            adds += _length(s) if k else 0
            numbers += (s, r, c_next)
    elif all(type(row) is str for row in doc["rows"]):
        numbers += doc["rows"]
    else:
        raise ValueError("rows must be digit strings")
    canonical = re.compile(f"0|[{ALPHABET[1:base]}][{ALPHABET[:base]}]*").fullmatch
    for bad in filterfalse(canonical, numbers):
        raise ValueError(f"{bad!r} is not a canonical base-{base} number")
    counters = doc["counters"]
    if counters["digit_mults"] != mults:
        raise ValueError(f"digit_mults must be len(a) * len(b) = {mults}")
    if algorithm == INCREMENTAL and counters["digit_adds"] != adds:
        raise ValueError(f"digit_adds must be {adds} for these steps")
    return doc
