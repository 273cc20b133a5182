import json

from carrymul.algorithms import INCREMENTAL, SCHOOLBOOK
from carrymul.bench import (
    compare_algorithms,
    render_bench_json,
    render_bench_text,
    retained_intermediates,
)
from carrymul.digits import from_int, parse_natural


def n(text, base=10):
    return parse_natural(text, base)


def test_worked_example_counters_and_retention():
    report = compare_algorithms(n("1234"), n("567"), reps=2)
    assert report.counters[INCREMENTAL].digit_mults == 12  # 4 * 3
    assert report.counters[SCHOOLBOOK].digit_mults == 12
    assert report.stored[SCHOOLBOOK] == 3  # one row per multiplier digit
    assert report.stored[INCREMENTAL] == 1  # just the live carry
    assert report.retained[SCHOOLBOOK] == 4
    assert report.retained[INCREMENTAL] == 2


def test_single_digit_multiplier_collapses_both():
    report = compare_algorithms(n("98765"), n("7"))
    assert report.retained[INCREMENTAL] == report.retained[SCHOOLBOOK] == 1
    assert (
        report.counters[INCREMENTAL].digit_mults
        == report.counters[SCHOOLBOOK].digit_mults
        == 5
    )
    assert report.counters[INCREMENTAL].digit_adds == report.counters[
        SCHOOLBOOK
    ].digit_adds


def test_64_digit_square_mult_count():
    a = from_int(10**63 + 12345, 10)
    assert len(a.digits) == 64
    report = compare_algorithms(a, a)
    assert report.counters[INCREMENTAL].digit_mults == 4096
    assert report.counters[SCHOOLBOOK].digit_mults == 4096


def test_retained_formula():
    for len_b in range(0, 6):
        inc = retained_intermediates(INCREMENTAL, len_b)
        sch = retained_intermediates(SCHOOLBOOK, len_b)
        if len_b <= 1:
            assert inc == sch == 1
        else:
            assert inc == 2 < sch == len_b + 1


def test_final_phase_adds():
    report = compare_algorithms(n("1234"), n("567"))
    assert report.final_sum_adds[INCREMENTAL] == 0
    # add(8638, 74040) costs 5 ticks, add(82678, 617000) costs 6
    assert report.final_sum_adds[SCHOOLBOOK] == 11


def test_medians_recorded_per_algorithm():
    report = compare_algorithms(n("123456789"), n("987654"), reps=3)
    assert set(report.median_s) == {INCREMENTAL, SCHOOLBOOK}
    assert all(t >= 0 for t in report.median_s.values())


def test_bench_serializations():
    report = compare_algorithms(n("1234"), n("567"), reps=2)
    doc = json.loads(render_bench_json(report))
    assert doc["counters"]["incremental"]["digit_mults"] == 12
    assert doc["reps"] == 2
    text = render_bench_text(report)
    assert "incremental" in text and "schoolbook" in text
    assert "final-phase adds" in text
