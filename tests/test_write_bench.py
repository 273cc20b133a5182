"""scripts/write_bench.py measures each end-to-end metric against its bound,
worse as positive, for lower- and higher-is-better metrics alike, re-times
set-up in alternating pairs, records uncommitted trees and tells a resolved
gain from noise."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "write_bench.py"


@pytest.fixture(scope="module")
def write_bench():
    spec = importlib.util.spec_from_file_location("write_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(values):
    """Three fabricated runs; metric name -> its value in each run."""
    return [
        (None, {"attempted": 10, "failed": 0,
                "metrics": {name: {"value": v[i]} for name, v in values.items()}})
        for i in range(3)
    ]


DECLARED = [
    {"name": name, "unit": "u", "better": better, "bound": 0.25}
    for name, better in (
        ("lower_within", "lower"),
        ("lower_outside", "lower"),
        ("higher_within", "higher"),
        ("higher_outside", "higher"),
        ("lower_improved", "lower"),
    )
]


def test_worse_is_positive_and_bound_is_checked(write_bench):
    runs = {
        "parent": side({
            "lower_within": (9, 10, 11), "lower_outside": (9, 10, 11),
            "higher_within": (90, 100, 110), "higher_outside": (90, 100, 110),
            "lower_improved": (9, 10, 11),
        }),
        "change": side({
            "lower_within": (11, 12, 13), "lower_outside": (12, 13, 14),
            "higher_within": (70, 80, 90), "higher_outside": (60, 70, 80),
            "lower_improved": (4, 5, 6),
        }),
    }
    metrics = write_bench.end_to_end(runs, DECLARED)["metrics"]
    got = {name: (entry["worse_by"], entry["within_bound"]) for name, entry in metrics.items()}
    assert got == {
        "lower_within": (pytest.approx(0.2), True),
        "lower_outside": (pytest.approx(0.3), False),
        "higher_within": (pytest.approx(0.2), True),
        "higher_outside": (pytest.approx(0.3), False),
        "lower_improved": (pytest.approx(-0.5), True),
    }


def test_setup_pairs_are_retimed_and_dirty_trees_recorded(write_bench, tmp_path, monkeypatch):
    """--setup-pairs N takes N alternating set-up readings per workload and
    summarises them under setup_retimed with the setup_s bound; dirty
    records which side has uncommitted changes."""
    spec = {
        "run_seconds": 1,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }
    checkouts = {side: tmp_path / side for side in write_bench.SIDES}
    for root in checkouts.values():
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps(spec))
    provenance = {"backend": "python", "git_commit": "abc", "shape_mix": [],
                  "python": "3", "implementation": "CPython", "machine": "x", "cpus": 2}
    report = {"provenance": provenance, "metrics": {}}
    monkeypatch.setattr(write_bench, "run_bench", lambda *args: (report, None))
    # fabricated set-up seconds, read in the order alternating() runs the sides
    readings = iter([0.020, 0.016, 0.015, 0.021, 0.022, 0.017, 0.018, 0.019])
    calls = []

    def setup_seconds(root, workload):
        calls.append((root.name, workload))
        return next(readings)

    monkeypatch.setattr(write_bench, "setup_seconds", setup_seconds)
    monkeypatch.setattr(write_bench, "dirty", lambda root: root.name == "change")
    write_bench.main([
        "--pr", "0", "--parent", str(checkouts["parent"]), "--change",
        str(checkouts["change"]), "--layer-seeds", "1", "--setup-pairs", "4",
    ])
    doc = json.loads((checkouts["change"] / "BENCH_0.json").read_text())
    assert doc["dirty"] == {"parent": False, "change": True}
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent"] * 2
    entry = doc["setup_retimed"]["w"]
    assert entry["parent_runs"] == [0.020, 0.021, 0.022, 0.019]
    assert entry["change_runs"] == [0.016, 0.015, 0.017, 0.018]
    assert entry["change_better_pairs"] == "4/4"
    assert entry["parent_q1_median_q3"] == pytest.approx([0.01975, 0.0205, 0.02125])
    assert entry["worse_by"] == pytest.approx(0.0165 / 0.0205 - 1)
    assert entry["within_bound"] and entry["bound"] == 0.25


def test_a_gain_is_resolved_by_pairs_won_and_the_parent_iqr(write_bench):
    """gain_resolved needs the change to win at least 9 of 10 pairs and to
    beat the parent's median by more than the parent's interquartile range
    (4.5 here), in the metric's better direction."""
    parent = list(range(10, 20))
    cases = {
        "all pairs, past the IQR": ("lower", [p - 6 for p in parent], True),
        "9 of 10 pairs": ("lower", [p - 6 for p in parent[:9]] + [20], True),
        "8 of 10 pairs": ("lower", [p - 6 for p in parent[:8]] + [19, 20], False),
        "all pairs, inside the IQR": ("lower", [p - 1 for p in parent], False),
        "higher is better": ("higher", [p + 6 for p in parent], True),
        "higher, but worse": ("higher", [p - 6 for p in parent], False),
    }
    for name, (better, change, resolved) in cases.items():
        spec = {"name": name, "unit": "u", "better": better, "bound": 0.25}
        entry = write_bench.compare({"parent": parent, "change": change}, spec)
        assert entry["parent_q1_median_q3"] == pytest.approx([12.25, 14.5, 16.75])
        assert entry["gain_resolved"] is resolved, name
