"""scripts/write_bench.py measures each end-to-end metric against its bound,
worse as positive, for lower- and higher-is-better metrics alike."""

import importlib.util
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
