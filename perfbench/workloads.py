"""The three workloads: how each draws its inputs, makes its call and checks it.

Every workload is a closed loop with one client: the next call starts only
after the previous one returned.  Inputs are drawn with carrymul's own
SplitMix64 from the benchmark seed, so the same seed gives the same inputs;
the program only ever receives the generated digit strings or vectors.

Each workload repeats a fixed *round* of shapes.  The seed chooses the digits
and the order inside a round, never the shapes, so every seed does the same
amount of digit work per round and the medians stay comparable across seeds.
The timed loop always finishes the round it is in.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time

import carrymul
from carrymul import cli, oracle, trace_io
from carrymul.oracle import SplitMix64

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
BASES = (2, 10, 16, 36)
CHILD_TIMEOUT_S = 60


def draw_digits(rng, base, length):
    """Canonical little-endian digits of exactly `length` digits."""
    digits = [rng.bounded(base) for _ in range(length - 1)]
    digits.append(1 + rng.bounded(base - 1))
    return digits


def text_of(digits):
    """Most-significant-first digit string of little-endian digits."""
    return "".join(ALPHABET[d] for d in reversed(digits)) or "0"


def value_of(digits, base):
    """Plain int value of little-endian digits, computed without carrymul."""
    return int(text_of(digits), base)


def shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.bounded(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def shape_mix(shapes):
    return [{"len_a": la, "len_b": lb, "bases": list(bases)} for la, lb, bases in shapes]


def child_env(root):
    """Environment for child interpreters: the checkout's src/ on the path."""
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_child(argv, root):
    """Run a child to completion; (returncode, stdout, stderr, seconds)."""
    started = time.perf_counter()
    proc = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        env=child_env(root),
        cwd=root,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - started


def run_cli_in_process(argv):
    """`carrymul.cli.run(argv)` with stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


class MulLarge:
    """`carrymul.multiply(a, b)`, incremental, on large and lopsided shapes."""

    name = "mul-large"
    op_unit = "product"
    throughput_unit = "products"
    rss_of_children = False
    # (len a, len b, bases).  Eight ops cheaper than 512², eight at 512² and
    # eight dearer, so the median of a run falls in the middle of the 512²
    # class and the tail inside the 1024² class, never on the boundary
    # between two classes.  The 512² class has one base because the bases
    # cost differently at one shape: with two, the median would sit between
    # the slowest op of the cheaper base and the fastest of the dearer one.
    # The lopsided pair separates carry length (len a) from step count
    # (len b).
    SHAPES = (
        (256, 256, BASES),
        (1024, 64, (10, 16)),
        (64, 1024, (2, 36)),
        (512, 512, (10,) * 8),
        (768, 768, BASES),
        (1024, 1024, BASES),
    )
    SETUP = (
        "import carrymul\n"
        "carrymul.multiply(carrymul.parse_natural('12345678', 10),"
        " carrymul.parse_natural('87654321', 10))\n"
    )

    def __init__(self, root):
        self.root = root

    def round(self, rng):
        shapes = [(la, lb, base) for la, lb, bases in self.SHAPES for base in bases]
        ops = []
        for la, lb, base in shuffled(rng, shapes):
            a, b = draw_digits(rng, base, la), draw_digits(rng, base, lb)
            ops.append(
                {
                    "a": carrymul.Natural(tuple(a), base),
                    "b": carrymul.Natural(tuple(b), base),
                    "expected": value_of(a, base) * value_of(b, base),
                    "shape": (la, lb),
                }
            )
        return ops

    @staticmethod
    def run(op):
        return carrymul.multiply(op["a"], op["b"])

    @staticmethod
    def check(op, result):
        base = op["a"].base
        return result.base == base and value_of(result.digits, base) == op["expected"]

    @staticmethod
    def units(op):
        return 1

    def peak_ops(self, first_round):
        """One op per distinct shape: the per-op peak depends on the shape."""
        seen = {}
        for op in first_round:
            seen.setdefault(op["shape"], op)
        return [(lambda op=op: self.run(op)) for op in seen.values()]

    def mix(self):
        return shape_mix(self.SHAPES)


class VerifyRandom:
    """`carrymul.random_check` in fixed-size batches over every base.

    Runs by hand only: BENCHMARK.json leaves it out.  Its batches all cost
    about the same, so a run's median follows whichever speed a shared host
    gave most of the run; ten 35 s runs spread by up to 26% of their median,
    past the 25% bound.  Its layers (kernels, oracle, check_invariant) stay
    in every traced run.
    """

    name = "verify-random"
    op_unit = "batch"
    throughput_unit = "pairs"
    rss_of_children = False
    BATCH = 100
    MAX_DIGITS = 16
    ROUND = 10
    # a batch's peak follows the largest pair it drew and varies by ~10%
    # between batches, so the maximum is taken over this many rounds
    PEAK_ROUNDS = 3
    SETUP = "import carrymul\ncarrymul.random_check(1, 16, range(2, 37), 0)\n"

    def __init__(self, root):
        self.root = root

    def round(self, rng):
        return [{"seed": rng.next_u64()} for _ in range(self.ROUND)]

    def run(self, op):
        return oracle.random_check(
            self.BATCH, self.MAX_DIGITS, oracle.all_bases(), op["seed"]
        )

    def check(self, op, report):
        return (
            report.ok()
            and report.pairs_checked == self.BATCH
            and report.params["seed"] == op["seed"]
        )

    def units(self, op):
        return self.BATCH

    def peak_ops(self, first_round):
        rng = SplitMix64(first_round[0]["seed"])
        ops = [op for _ in range(self.PEAK_ROUNDS) for op in self.round(rng)]
        return [(lambda op=op: self.run(op)) for op in ops]

    def mix(self):
        return {"pairs_per_batch": self.BATCH, "max_digits": self.MAX_DIGITS, "bases": "2..36"}


class CliTrace:
    """`python -m carrymul.cli trace A B --format json`, a fresh process per op."""

    name = "cli-trace"
    op_unit = "process"
    throughput_unit = "processes"
    rss_of_children = True
    # Same layout rule as mul-large: eight ops cheaper than 64², eight at 64²
    # and eight dearer.
    SHAPES = (
        (16, 16, BASES),
        (256, 16, (10, 16)),
        (16, 256, (2, 36)),
        (64, 64, BASES + BASES),
        (128, 128, BASES),
        (256, 256, BASES),
    )
    SETUP = (
        "import carrymul.cli, contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    carrymul.cli.run(['trace', '1234', '567', '--format', 'json'])\n"
    )

    def __init__(self, root):
        self.root = root

    def round(self, rng):
        shapes = [(la, lb, base) for la, lb, bases in self.SHAPES for base in bases]
        ops = []
        for la, lb, base in shuffled(rng, shapes):
            a, b = draw_digits(rng, base, la), draw_digits(rng, base, lb)
            ops.append(
                {
                    "a": text_of(a),
                    "b": text_of(b),
                    "base": base,
                    "expected": value_of(a, base) * value_of(b, base),
                }
            )
        return ops

    @staticmethod
    def argv(op):
        return ["trace", op["a"], op["b"], "--base", str(op["base"]), "--format", "json"]

    def run(self, op):
        argv = [sys.executable, "-m", "carrymul.cli", *self.argv(op)]
        code, out, _, _ = run_child(argv, self.root)
        return code, out

    @staticmethod
    def check(op, result):
        code, out = result
        if code != 0:
            return False
        try:
            doc = trace_io.parse_trace_document(out)
            return (
                doc["a"] == op["a"]
                and doc["b"] == op["b"]
                and doc["base"] == op["base"]
                and int(doc["result"], op["base"]) == op["expected"]
                and trace_io.dumps_canonical(doc) == out
            )
        except (ValueError, KeyError, TypeError):
            return False

    @staticmethod
    def units(op):
        return 1

    def peak_ops(self, first_round):
        """The op's own work, run in-process so tracemalloc can see it."""
        return [(lambda op=op: run_cli_in_process(self.argv(op))) for op in first_round]

    def mix(self):
        return shape_mix(self.SHAPES)


WORKLOADS = {w.name: w for w in (MulLarge, VerifyRandom, CliTrace)}
