"""Command-line interface.

Subcommands: mul, trace, verify, bench.  stdout carries only the requested
payload; diagnostics go to stderr.  Exit codes: 0 success, 1 usage or parse
error, 2 verification found a mismatch.
"""

from __future__ import annotations

import argparse
import sys

from carrymul import algorithms, bench, oracle, trace_io
from carrymul.digits import parse_natural
from carrymul.errors import Error

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


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
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--max-digits", type=int, default=16)
    p_verify.add_argument("--seed", type=int, default=0)
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
            trace = algorithms.TRACED[args.algo](a, b)
            if args.format == "json":
                sys.stdout.write(trace_io.render_trace_json(trace))
            else:
                print(trace_io.render_trace_text(trace))
            return EXIT_OK

        if args.subcommand == "verify":
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
                report = oracle.random_check(
                    args.trials, args.max_digits, oracle.all_bases(), args.seed
                )
            else:
                report = oracle.exhaustive_check(args.limit, args.base or 10)
            if args.format == "json":
                sys.stdout.write(trace_io.render_report_json(report))
            else:
                print(trace_io.render_report_text(report))
            return EXIT_OK if report.ok() else EXIT_MISMATCH

        if args.subcommand == "bench":
            a, b = _operands(args)
            report = bench.compare_algorithms(a, b, args.reps)
            if args.format == "json":
                sys.stdout.write(trace_io.render_bench_json(report))
            else:
                print(trace_io.render_bench_text(report))
            return EXIT_OK
    except (Error, ValueError) as exc:
        print(f"carrymul: {exc}", file=sys.stderr)
        return EXIT_USAGE

    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
