import pytest

from carrymul import kernels, oracle
from carrymul.bench import compare_algorithms
from carrymul.digits import from_int, parse_natural, to_int
from carrymul.errors import BaseOutOfRange
from carrymul.oracle import (
    InvariantFailure,
    Mismatch,
    SplitMix64,
    VerifyReport,
    exhaustive_check,
    oracle_multiply,
    random_check,
    render_report_json,
    render_report_text,
)


def n(text, base=10):
    return parse_natural(text, base)


def test_oracle_worked_example():
    assert str(oracle_multiply(n("1234"), n("567"))) == "699678"


def test_oracle_annihilation():
    assert str(oracle_multiply(n("12345"), n("0"))) == "0"
    assert str(oracle_multiply(n("0"), n("12345"))) == "0"


def test_oracle_derived_value():
    assert str(oracle_multiply(n("37"), n("41"))) == "1517"


def test_oracle_against_int_many():
    for base in (2, 10, 36):
        for x in range(0, 300, 23):
            for y in range(0, 300, 17):
                assert to_int(oracle_multiply(from_int(x, base), from_int(y, base))) == x * y


def test_oracle_never_touches_the_tested_kernels(monkeypatch):
    """The pure backend resolves internal calls through module globals, so
    poisoning mul_by_digit, divmod_base and shift (schoolbook's row shift)
    proves the oracle avoids them."""
    py = kernels.get_backend("python")

    def boom(*args):
        raise AssertionError("oracle reached a tested kernel")

    monkeypatch.setattr(py, "mul_by_digit", boom)
    monkeypatch.setattr(py, "divmod_base", boom)
    monkeypatch.setattr(py, "shift", boom)
    assert py.oracle_mul([7, 3], [1, 4], 10) == [7, 1, 5, 1]
    assert py.oracle_mul([5, 3, 4], [0, 9, 0, 3], 36) == [0, 9, 28, 15, 10, 12]
    with pytest.raises(AssertionError):
        py.incremental([7, 3], [1, 4], 10)
    with pytest.raises(AssertionError):
        py.schoolbook([7, 3], [1, 4], 10)


def test_splitmix64_reference_sequence():
    # first outputs for seed 1234567, from the published mixing constants
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]
    rng = SplitMix64(0)
    assert rng.next_u64() == 16294208416658607535
    assert rng.next_u64() == 7960286522194355700


@pytest.mark.parametrize("n", [-5, 0, 2.5, True, "3", None], ids=repr)
def test_splitmix64_bounded_rejects_a_bound_that_is_not_a_positive_int(n):
    """-5 used to draw from -4..0, 2.5 to return 1.5, True to act as 1 and
    0 to raise ZeroDivisionError; a rejected call consumes no draw."""
    rng = SplitMix64(7)
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        rng.bounded(n)
    assert rng.next_u64() == SplitMix64(7).next_u64()


def test_splitmix64_bounded_reduces_each_draw_modulo_n():
    rng, raw = SplitMix64(99), SplitMix64(99)
    for n in (1, 2, 10, 36, 2**64 + 1):
        assert rng.bounded(n) == raw.next_u64() % n


def test_exhaustive_tiny():
    report = exhaustive_check(2, 10)
    assert report.pairs_checked == 4
    assert report.ok()


def test_exhaustive_desk_scale():
    report = exhaustive_check(200, 10)
    assert report.pairs_checked == 40000
    assert report.ok()


def test_exhaustive_base2():
    report = exhaustive_check(50, 2)
    assert report.pairs_checked == 2500
    assert report.ok()


def test_exhaustive_validates_args():
    with pytest.raises(ValueError):
        exhaustive_check(0, 10)
    with pytest.raises(BaseOutOfRange):
        exhaustive_check(10, 1)


def test_random_single_trial():
    report = random_check(1, 1, {10}, seed=99)
    assert report.pairs_checked == 1
    assert report.ok()


def test_random_all_bases():
    report = random_check(300, 12, range(2, 37), seed=7)
    assert report.pairs_checked == 300
    assert report.ok()


def test_random_same_seed_same_report():
    r1 = random_check(50, 8, {2, 10, 36}, seed=5)
    r2 = random_check(50, 8, {2, 10, 36}, seed=5)
    assert render_report_json(r1) == render_report_json(r2)


def test_failing_report_renders_exactly():
    """Every field of every mismatch and invariant failure, in both formats;
    the text keeps elapsed, the JSON leaves it out."""
    report = VerifyReport(
        mode="random",
        params={"trials": 3, "max_digits": 2, "bases": [10, 36], "seed": 7},
        pairs_checked=3,
        mismatches=[
            Mismatch("12", "34", 10, "408", "418", "408", "408"),
            Mismatch("zz", "a", 36, "9zq", "9zq", "9zr", "9zq"),
        ],
        invariant_failures=[InvariantFailure("12", "34", 10, 1)],
        elapsed_s=0.25,
    )
    assert render_report_json(report) == (
        '{"invariant_failures":[{"a":"12","b":"34","base":10,"step":1}],'
        '"mismatches":[{"a":"12","b":"34","base":10,"expected":"408",'
        '"incremental":"418","oracle":"408","schoolbook":"408"},'
        '{"a":"zz","b":"a","base":36,"expected":"9zq","incremental":"9zq",'
        '"oracle":"9zq","schoolbook":"9zr"}],"mode":"random","pairs_checked":3,'
        '"params":{"bases":[10,36],"max_digits":2,"seed":7,"trials":3},'
        '"schema_version":"1"}\n'
    )
    assert render_report_text(report) == (
        "mode: random\n"
        "trials: 3\n"
        "max_digits: 2\n"
        "bases: 10,36\n"
        "seed: 7\n"
        "pairs checked: 3\n"
        "mismatches: 2\n"
        "  a=12 b=34 base=10 expected=408 incremental=418 schoolbook=408 oracle=408\n"
        "  a=zz b=a base=36 expected=9zq incremental=9zq schoolbook=9zr oracle=9zq\n"
        "invariant failures: 1\n"
        "  a=12 b=34 base=10 step=1\n"
        "elapsed: 0.250s\n"
        "status: FAIL"
    )


def test_random_different_seed_different_draws():
    # the canonical serialization has no pair list when everything passes,
    # so compare the raw draws instead
    rng1, rng2 = SplitMix64(1), SplitMix64(2)
    assert [rng1.next_u64() for _ in range(4)] != [rng2.next_u64() for _ in range(4)]


def test_random_validates_args():
    with pytest.raises(ValueError):
        random_check(0, 4, {10}, seed=1)
    with pytest.raises(ValueError):
        random_check(4, 0, {10}, seed=1)
    with pytest.raises(ValueError):
        random_check(4, 4, set(), seed=1)


@pytest.mark.parametrize(
    "bases", [[10, 10.0], [10.0, 10], [10, "x"], [10, None]], ids=repr
)
def test_random_checks_every_base_before_dedup(bases):
    """A float equal to a valid base, or a base that cannot be sorted, is
    rejected whatever its place in the list, not merged away by set()."""
    with pytest.raises(BaseOutOfRange):
        random_check(3, 4, bases, 0)


def test_random_reads_a_base_generator_once():
    report = random_check(3, 4, (b for b in [36, 2, 10, 2]), 0)
    assert report.params["bases"] == [2, 10, 36]


DRIVER_CALLS = {
    "limit=True": lambda: exhaustive_check(True),
    "limit=2.5": lambda: exhaustive_check(2.5),
    "limit=0": lambda: exhaustive_check(0),
    "trials=True": lambda: random_check(True, 4, [10], 0),
    "trials=1.5": lambda: random_check(1.5, 4, [10], 0),
    "max_digits=True": lambda: random_check(4, True, [10], 0),
    "max_digits=2.0": lambda: random_check(4, 2.0, [10], 0),
    "seed=1.5": lambda: random_check(4, 4, [10], 1.5),
    "seed=True": lambda: random_check(4, 4, [10], True),
    "seed='1'": lambda: random_check(4, 4, [10], "1"),
    "reps=True": lambda: compare_algorithms(n("12"), n("34"), True),
    "reps=2.0": lambda: compare_algorithms(n("12"), n("34"), 2.0),
    "reps=0": lambda: compare_algorithms(n("12"), n("34"), 0),
}


@pytest.mark.parametrize("call", DRIVER_CALLS.values(), ids=DRIVER_CALLS.keys())
def test_drivers_take_only_int_sizes(call):
    """A size that is not an exact int >= 1, or a seed that is not an exact
    int, raises ValueError: a bool would be written into the report JSON as
    true, and a float would fail later with a bare TypeError."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("seed", [True, False, 1.5, None, "1"], ids=repr)
def test_splitmix_takes_only_int_seeds(seed):
    """The generator checks its own seed, as random_check does through it: a
    bool would seed as 0 or 1, and the others fail with a bare TypeError."""
    with pytest.raises(ValueError, match="seed must be an int"):
        SplitMix64(seed)


def test_random_masks_negative_seeds(monkeypatch):
    """A negative seed is valid and draws as the seed mod 2**64, in the
    documented order: base, len(a), len(b), the digits of a, then of b."""
    drawn = []
    monkeypatch.setattr(oracle, "_check_pair", lambda *args: drawn.append(args[:3]))
    report = random_check(20, 6, {2, 10, 36}, seed=-1)
    assert report.params["seed"] == -1
    random_check(20, 6, {2, 10, 36}, seed=2**64 - 1)
    assert drawn[:20] == drawn[20:]
    # recorded values: reordering the draws changes every recorded report
    assert drawn[:3] == [
        ([18, 6, 19, 11], [20, 6], 36),
        ([5, 5], [5, 5], 10),
        ([6], [3, 7, 9, 6], 10),
    ]


@pytest.mark.parametrize(
    "fault",
    [lambda steps: steps[:-1], lambda steps: steps[:-1] + [(*steps[-1][:2], [])]],
    ids=["stops-one-step-early", "drops-the-final-carry"],
)
def test_verify_certifies_the_traced_steps_by_their_flags(monkeypatch, fault):
    """The traced route reaches the report only through its invariant flags,
    since the pair's incremental value comes from incremental_product.  A
    step list that stops early, or ends on a wrong carry, fails at that step
    while the product stays right."""
    real = kernels.impl

    class Stub:
        def __getattr__(self, name):
            return getattr(real, name)

        @staticmethod
        def incremental_steps(a, b, base):
            steps = list(real.incremental_steps(a, b, base))
            return fault(steps) if (a, b) == ([2, 1], [3, 4]) else steps

    monkeypatch.setattr(kernels, "impl", Stub())
    report = exhaustive_check(50, 10)
    assert report.mismatches == ()
    assert [(f.a, f.b, f.step) for f in report.invariant_failures] == [("12", "43", 1)]


def test_mismatch_reporting_via_stubbed_backend(monkeypatch):
    """Force a wrong incremental product and check it is reported, rendered
    in the operand base and counted in the exit status."""
    real = kernels.impl

    class Stub:
        def __getattr__(self, name):
            return getattr(real, name)

        @staticmethod
        def incremental_product(a, b, base):
            result = real.incremental_product(a, b, base)
            if a == [1, 1] and b == [1, 1]:  # 11 x 11 only
                result[0] ^= 1
            return result

    monkeypatch.setattr(kernels, "impl", Stub())
    report = exhaustive_check(12, 10)
    assert not report.ok()
    assert len(report.mismatches) == 1
    m = report.mismatches[0]
    assert (m.a, m.b, m.expected) == ("11", "11", "121")
    assert m.incremental != m.expected
    assert m.schoolbook == m.oracle == "121"
