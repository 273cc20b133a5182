"""Command-line interface.

Subcommands: mul, trace, verify, bench.  stdout carries only the requested
payload; diagnostics go to stderr.  Exit codes: 0 success, 1 usage or parse
error, or stdout closed before all of the payload was written (a reader such
as ``head`` that quits early; no traceback is printed), 2 verification found
a mismatch.  The oracle and bench layers are imported by their own
subcommands only, so mul and trace never load them.  trace writes each step
as it is computed (see ``trace_io.write_trace``).
"""

import argparse
import os
import sys

from carrymul import algorithms, trace_io
from carrymul.digits import parse_natural
from carrymul.errors import Error

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

# verify --random's trials, digit bound and seed: dest -> default.  They
# default to None on the parser, so --limit mode can reject them when given.
RANDOM_DEFAULTS = {"trials": 1000, "max_digits": 16, "seed": 0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrymul",
        description="Exact arbitrary-base multiplication with step tracing, "
        "differential verification and operation-count benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_operands(p):
        p.add_argument("a", help="first operand (digits in the chosen base)")
        p.add_argument("b", help="second operand")
        p.add_argument("--base", type=int, default=10, help="numeral base, 2..36")

    p_mul = sub.add_parser("mul", help="print the product")
    add_operands(p_mul)
    p_mul.add_argument(
        "--algo", choices=algorithms.ALGORITHMS, default=algorithms.INCREMENTAL
    )

    p_trace = sub.add_parser("trace", help="print the step-by-step computation")
    add_operands(p_trace)
    p_trace.add_argument(
        "--algo", choices=algorithms.ALGORITHMS, default=algorithms.INCREMENTAL
    )
    p_trace.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser(
        "verify", help="differential check against the independent oracle"
    )
    p_verify.add_argument("--limit", type=int, help="exhaustive over 0 <= x,y < limit")
    p_verify.add_argument(
        "--base", type=int, default=None, help="base for --limit mode (default 10)"
    )
    p_verify.add_argument(
        "--random", action="store_true", help="seeded random trials over bases 2..36"
    )
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--max-digits", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_bench = sub.add_parser("bench", help="compare the two algorithms on one pair")
    add_operands(p_bench)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _operands(args):
    a = parse_natural(args.a, args.base)
    b = parse_natural(args.b, args.base)
    return a, b


def _emit(args, value, as_json, as_text):
    """Write value in the requested --format: JSON as is, text plus a newline."""
    if args.format == "json":
        sys.stdout.write(as_json(value))
    else:
        print(as_text(value))


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.subcommand == "mul":
            a, b = _operands(args)
            print(algorithms.multiply(a, b, args.algo))
            return EXIT_OK

        if args.subcommand == "trace":
            a, b = _operands(args)
            trace_io.write_trace(a, b, args.algo, args.format, sys.stdout.write)
            return EXIT_OK

        if args.subcommand == "verify":
            from carrymul import oracle

            if args.random == (args.limit is not None):
                print(
                    "carrymul: verify needs exactly one of --limit or --random",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            if args.random:
                if args.base is not None:
                    print(
                        "carrymul: --base applies to --limit mode only "
                        "(random trials sweep bases 2..36)",
                        file=sys.stderr,
                    )
                    return EXIT_USAGE
                trials, max_digits, seed = (
                    default if getattr(args, dest) is None else getattr(args, dest)
                    for dest, default in RANDOM_DEFAULTS.items()
                )
                report = oracle.random_check(
                    trials, max_digits, oracle.all_bases(), seed
                )
            else:
                for dest in RANDOM_DEFAULTS:
                    if getattr(args, dest) is not None:
                        flag = "--" + dest.replace("_", "-")
                        print(
                            f"carrymul: {flag} applies to --random mode only",
                            file=sys.stderr,
                        )
                        return EXIT_USAGE
                report = oracle.exhaustive_check(args.limit, args.base or 10)
            _emit(args, report, oracle.render_report_json, oracle.render_report_text)
            return EXIT_OK if report.ok() else EXIT_MISMATCH

        if args.subcommand == "bench":
            from carrymul import bench

            a, b = _operands(args)
            report = bench.compare_algorithms(a, b, args.reps)
            _emit(args, report, bench.render_bench_json, bench.render_bench_text)
            return EXIT_OK
    except (Error, ValueError) as exc:
        print(f"carrymul: {exc}", file=sys.stderr)
        return EXIT_USAGE

    raise AssertionError("unreachable")


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
    except BrokenPipeError:
        # the recipe of the signal module's docs: the interpreter flushes
        # stdout again at exit, so point it at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
