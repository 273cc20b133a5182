import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carrymul import _kernels_py, cli, kernels
from carrymul.algorithms import (
    ALGORITHMS,
    TRACED,
    incremental_multiply,
    schoolbook_multiply,
)
from carrymul.digits import ALPHABET, parse_natural
from carrymul.oracle import (
    exhaustive_check,
    random_check,
    render_report_json,
    render_report_text,
)
from carrymul.trace_io import (
    dumps_canonical,
    parse_trace_document,
    render_trace_json,
    render_trace_text,
)

GOLDEN = Path(__file__).parent / "golden"


def n(text, base=10):
    return parse_natural(text, base)


def worked_trace():
    return incremental_multiply(n("1234"), n("567"))


def test_text_worked_example():
    assert render_trace_text(worked_trace()).splitlines() == [
        "S_0 = 1234 × 7 = 8638; r_0 = 8; c_1 = 863",
        "S_1 = 1234 × 6 + 863 = 8267; r_1 = 7; c_2 = 826",
        "S_2 = 1234 × 5 + 826 = 6996; r_2 = 6; c_3 = 699",
        "R = 699678",
    ]


def test_text_zero_multiplier_single_line():
    trace = incremental_multiply(n("1234"), n("0"))
    assert render_trace_text(trace) == "R = 0"


def test_text_162_squared_carry_line():
    trace = incremental_multiply(n("162"), n("162"))
    assert (
        render_trace_text(trace).splitlines()[1]
        == "S_1 = 162 × 6 + 32 = 1004; r_1 = 4; c_2 = 100"
    )


def test_text_hex_digit_glyphs():
    trace = incremental_multiply(n("ff", 16), n("f", 16))
    assert render_trace_text(trace).splitlines()[0].startswith("S_0 = ff × f = ")


def test_text_schoolbook_rows():
    trace = schoolbook_multiply(n("1234"), n("567"))
    assert render_trace_text(trace).splitlines() == [
        "P_0 = 1234 × 7 = 8638",
        "P_1 = 1234 × 6 × 10^1 = 74040",
        "P_2 = 1234 × 5 × 10^2 = 617000",
        "R = 699678",
    ]


def test_json_step_entry_matches_contract():
    doc = json.loads(render_trace_json(worked_trace()))
    assert doc["steps"][0] == {"c_next": "863", "k": 0, "r": "8", "s": "8638"}
    assert doc["base"] == 10
    assert doc["schema_version"] == "1"


def test_json_zero_times_zero():
    doc = json.loads(render_trace_json(incremental_multiply(n("0"), n("0"))))
    assert doc["steps"] == []
    assert doc["result"] == "0"


def test_json_is_canonical():
    text = render_trace_json(worked_trace())
    assert text.endswith("\n")
    assert "\n" not in text[:-1]
    assert " " not in text  # no insignificant whitespace
    doc = json.loads(text)
    assert list(doc.keys()) == sorted(doc.keys())


def test_json_round_trip_byte_identical():
    text = render_trace_json(worked_trace())
    assert dumps_canonical(parse_trace_document(text)) == text
    sch = render_trace_json(schoolbook_multiply(n("12"), n("999")))
    assert dumps_canonical(parse_trace_document(sch)) == sch


def test_parse_rejects_malformed_documents():
    """Every malformed document raises ValueError, never AttributeError or
    TypeError from reading a field of the wrong JSON type."""
    incremental = json.loads(render_trace_json(worked_trace()))
    schoolbook = json.loads(render_trace_json(schoolbook_multiply(n("12"), n("999"))))
    for good, breakage in (
        (incremental, lambda d: d.update(schema_version="999")),
        (incremental, lambda d: d.update(algorithm="vedic")),
        (incremental, lambda d: d.pop("result")),
        (incremental, lambda d: d["steps"][0].pop("c_next")),
        (incremental, lambda d: d.update(steps=[1])),
        (incremental, lambda d: d.update(steps="ab")),
        (incremental, lambda d: d.update(steps=None)),
        (incremental, lambda d: d.update(steps={"k": 0})),
        (schoolbook, lambda d: d.update(rows=None)),
        (schoolbook, lambda d: d.update(rows="12")),
        (schoolbook, lambda d: d.update(rows=[12])),
        (incremental, lambda d: d.update(base="ten")),
        (incremental, lambda d: d.update(base=True)),
        (incremental, lambda d: d.update(base=10.0)),
        (incremental, lambda d: d.update(a=1234)),
        (schoolbook, lambda d: d.update(b=None)),
        (incremental, lambda d: d.update(result=5)),
        (incremental, lambda d: d.update(counters=[])),
        (incremental, lambda d: d["counters"].pop("digit_adds")),
        (schoolbook, lambda d: d["counters"].update(digit_mults="6")),
        (incremental, lambda d: d["counters"].update(digit_adds=False)),
        (incremental, lambda d: d["steps"][0].update(k=None)),
        (incremental, lambda d: d["steps"][0].update(k="0")),
        (incremental, lambda d: d["steps"][1].update(s=2)),
        (incremental, lambda d: d["steps"][1].update(r=9)),
        (incremental, lambda d: d["steps"][2].update(c_next=[6])),
        (incremental, lambda d: d.update(base=99)),
        (incremental, lambda d: d.update(base=1)),
        (schoolbook, lambda d: d.update(base=0)),
        (incremental, lambda d: d.update(base=37)),
        (incremental, lambda d: d["counters"].update(digit_mults=-1)),
        (incremental, lambda d: d.update(result="zz")),
        (incremental, lambda d: d.update(result="0123")),
        (incremental, lambda d: d.update(result="699678 ")),
        (incremental, lambda d: d.update(a="")),
        (schoolbook, lambda d: d.update(b="00")),
        (incremental, lambda d: d.update(a="12a4")),
        (incremental, lambda d: d["steps"][0].update(r="99")),
        (incremental, lambda d: d["steps"][0].update(r="")),
        (incremental, lambda d: d["steps"][0].update(k=-5)),
        (incremental, lambda d: d["steps"][1].update(k=0)),
        (incremental, lambda d: d["steps"][1].update(s="+1")),
        (incremental, lambda d: d["steps"][2].update(c_next=" 1")),
        (schoolbook, lambda d: d["rows"].__setitem__(1, "0120")),
        (schoolbook, lambda d: d["rows"].__setitem__(0, "")),
    ):
        doc = json.loads(json.dumps(good))
        breakage(doc)
        with pytest.raises(ValueError):
            parse_trace_document(json.dumps(doc))
    with pytest.raises(ValueError):
        parse_trace_document("[1,2,3]")


@pytest.mark.parametrize("base", range(2, 37))
def test_every_base_round_trips(base):
    """The canonical-number check accepts every glyph of every base."""
    top = "0123456789abcdefghijklmnopqrstuvwxyz"[base - 1]
    a, b = n(top * 3 + "1", base), n("1" + top * 2, base)
    for trace in (incremental_multiply(a, b), schoolbook_multiply(a, b)):
        text = render_trace_json(trace)
        assert dumps_canonical(parse_trace_document(text)) == text


def test_text_and_json_share_numeric_strings():
    trace = worked_trace()
    text = render_trace_text(trace)
    doc = json.loads(render_trace_json(trace))
    for step in doc["steps"]:
        assert step["s"] in text
        assert step["c_next"] in text
    assert doc["result"] in text


@pytest.fixture(params=["python", "compiled"])
def backend(request, monkeypatch):
    """Runs the test with kernels.impl set to each backend in turn."""
    impl = _kernels_py
    if request.param == "compiled":
        impl = request.getfixturevalue("compiled_kernels")
    monkeypatch.setattr(kernels, "impl", impl)


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("base", range(2, 37))
@settings(max_examples=8, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_streamed_trace_equals_the_trace_renderers(backend, base, data):
    """`carrymul trace` writes each step as the kernel yields it and builds
    no Trace; its stdout is byte-equal to the Trace-based renderers, for
    both algorithms and formats, with zero and leading-zero operands, and
    every streamed document re-serialises to itself through json."""
    operand = st.text(ALPHABET[:base], max_size=12).map(lambda t: t or "0")
    a, b = data.draw(operand, label="a"), data.draw(operand, label="b")
    for algo in ALGORITHMS:
        trace = TRACED[algo](parse_natural(a, base), parse_natural(b, base))
        argv = ["trace", a, b, "--base", str(base), "--algo", algo, "--format"]
        assert cli_stdout(argv + ["text"]) == render_trace_text(trace) + "\n"
        streamed = cli_stdout(argv + ["json"])
        assert streamed == render_trace_json(trace)
        assert dumps_canonical(parse_trace_document(streamed)) == streamed


def test_golden_json_file():
    expected = (GOLDEN / "trace_1234x567.json").read_text()
    assert render_trace_json(worked_trace()) == expected
    assert dumps_canonical(parse_trace_document(expected)) == expected


def test_golden_text_file():
    expected = (GOLDEN / "trace_1234x567.txt").read_text()
    assert render_trace_text(worked_trace()) + "\n" == expected


def test_report_json_is_deterministic_and_elapsed_free():
    report = exhaustive_check(4, 10)
    doc = json.loads(render_report_json(report))
    assert "elapsed" not in json.dumps(doc)
    assert doc["pairs_checked"] == 16
    assert doc["mismatches"] == []
    assert doc["invariant_failures"] == []
    assert render_report_json(exhaustive_check(4, 10)) == render_report_json(report)


def test_report_text_mentions_status_and_elapsed():
    report = random_check(3, 4, {10}, seed=1)
    text = render_report_text(report)
    assert "status: OK" in text
    assert "elapsed:" in text
    assert "pairs checked: 3" in text
