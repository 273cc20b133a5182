"""The contract of the eight value types: construction, equality, hashing,
repr, immutability, copying and pickling."""

import copy
import pickle

import pytest

from carrymul.algorithms import OpCounters, StepRecord, Trace
from carrymul.bench import BenchReport
from carrymul.digits import Natural
from carrymul.oracle import InvariantFailure, Mismatch, VerifyReport

N321 = Natural((3, 2, 1), 10)
N7 = Natural((7,), 10)

# type -> (field names in order, one value per field, the repr of that value)
CASES = {
    Natural: (
        ("digits", "base"),
        ((3, 2, 1), 10),
        "Natural(digits=(3, 2, 1), base=10)",
    ),
    OpCounters: (
        ("digit_mults", "digit_adds"),
        (6, 9),
        "OpCounters(digit_mults=6, digit_adds=9)",
    ),
    StepRecord: (
        ("k", "s", "r", "c_next"),
        (0, N321, 3, N7),
        "StepRecord(k=0, s=Natural(digits=(3, 2, 1), base=10), r=3, "
        "c_next=Natural(digits=(7,), base=10))",
    ),
    Trace: (
        ("algorithm", "base", "a", "b", "steps", "rows", "result", "counters"),
        ("schoolbook", 10, N7, N7, (), (N321,), N321, OpCounters(1, 1)),
        "Trace(algorithm='schoolbook', base=10, a=Natural(digits=(7,), base=10), "
        "b=Natural(digits=(7,), base=10), steps=(), "
        "rows=(Natural(digits=(3, 2, 1), base=10),), "
        "result=Natural(digits=(3, 2, 1), base=10), "
        "counters=OpCounters(digit_mults=1, digit_adds=1))",
    ),
    Mismatch: (
        ("a", "b", "base", "expected", "incremental", "schoolbook", "oracle"),
        ("12", "34", 10, "408", "409", "408", "408"),
        "Mismatch(a='12', b='34', base=10, expected='408', incremental='409', "
        "schoolbook='408', oracle='408')",
    ),
    InvariantFailure: (
        ("a", "b", "base", "step"),
        ("12", "34", 10, 1),
        "InvariantFailure(a='12', b='34', base=10, step=1)",
    ),
    VerifyReport: (
        ("mode", "params", "pairs_checked", "mismatches", "invariant_failures",
         "elapsed_s"),
        ("exhaustive", {"limit": 2, "base": 10}, 4,
         (Mismatch("1", "1", 10, "1", "2", "1", "1"),),
         (InvariantFailure("1", "1", 10, 0),), 0.5),
        "VerifyReport(mode='exhaustive', params={'limit': 2, 'base': 10}, "
        "pairs_checked=4, mismatches=(Mismatch(a='1', b='1', base=10, "
        "expected='1', incremental='2', schoolbook='1', oracle='1'),), "
        "invariant_failures=(InvariantFailure(a='1', b='1', base=10, step=0),), "
        "elapsed_s=0.5)",
    ),
    BenchReport: (
        ("base", "len_a", "len_b", "reps", "counters", "retained", "stored",
         "final_sum_adds", "median_s"),
        (10, 1, 1, 1, {"incremental": OpCounters(1, 1)}, {"incremental": 1},
         {"incremental": 1}, {"incremental": 0}, {"incremental": 0.25}),
        "BenchReport(base=10, len_a=1, len_b=1, reps=1, "
        "counters={'incremental': OpCounters(digit_mults=1, digit_adds=1)}, "
        "retained={'incremental': 1}, stored={'incremental': 1}, "
        "final_sum_adds={'incremental': 0}, median_s={'incremental': 0.25})",
    ),
}
TYPES = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def fields(x, names):
    return tuple(getattr(x, name) for name in names)


@TYPES
def test_positional_and_keyword_construction(cls):
    names, values, _ = CASES[cls]
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert fields(positional, names) == values
    assert fields(keyword, names) == values
    assert positional == keyword


@TYPES
def test_missing_or_extra_argument_raises_type_error(cls):
    names, values, _ = CASES[cls]
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values[:-1])


@TYPES
def test_field_given_twice_or_unknown_raises_type_error(cls):
    names, values, _ = CASES[cls]
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), no_such_field=1)


@pytest.mark.parametrize(
    "cls",
    (OpCounters, StepRecord, Trace, Mismatch, InvariantFailure, VerifyReport,
     BenchReport),
    ids=lambda cls: cls.__name__,
)
def test_plain_value_types_declare_fields_only_in_slots(cls):
    """Record.__init__ binds the fields; only Natural writes its own, to
    check its input."""
    assert "__init__" not in cls.__dict__


@TYPES
def test_equality_only_with_the_same_type(cls):
    names, values, _ = CASES[cls]
    x = cls(*values)
    assert x == cls(*values)
    assert not x != cls(*values)
    assert x != values
    assert x != fields(x, names)
    assert x != object()


def test_equality_compares_every_field():
    assert Natural((1,), 10) != Natural((1,), 16)
    assert OpCounters(1, 2) != OpCounters(2, 1)
    assert InvariantFailure("1", "1", 10, 0) != InvariantFailure("1", "1", 10, 1)


@TYPES
def test_hash(cls):
    names, values, _ = CASES[cls]
    x = cls(*values)
    if any(isinstance(value, dict) for value in values):
        # a report's params or counters are dicts: unhashable, as the tuple
        with pytest.raises(TypeError):
            hash(fields(x, names))
        with pytest.raises(TypeError):
            hash(x)
        return
    # every field of a Trace is immutable too, so it hashes
    assert hash(x) == hash(fields(x, names))


def test_frozen_values_with_hashable_fields_work_as_keys():
    assert {N321: "a"}[Natural((3, 2, 1), 10)] == "a"
    assert len({StepRecord(0, N7, 7, N7), StepRecord(0, N7, 7, N7)}) == 1


@TYPES
def test_repr(cls):
    _, values, expected = CASES[cls]
    assert repr(cls(*values)) == expected


@TYPES
def test_frozen_fields_cannot_be_assigned_or_deleted(cls):
    names, values, _ = CASES[cls]
    x = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == value


@TYPES
def test_copy_deepcopy_and_pickle_round_trip(cls):
    names, values, _ = CASES[cls]
    x = cls(*values)
    shallow = copy.copy(x)
    assert type(shallow) is cls and shallow == x
    assert all(a is b for a, b in zip(fields(shallow, names), values))
    deep = copy.deepcopy(x)
    assert type(deep) is cls and deep == x
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(x, protocol))
        assert type(restored) is cls and restored == x
        assert repr(restored) == repr(x)
