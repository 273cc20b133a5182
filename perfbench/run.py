#!/usr/bin/env python3
"""The carrymul benchmark.

    python3 perfbench/run.py --workload mul-large --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports carrymul from ./src, so it
measures whichever kernel backend that tree provides (the pure-Python one
unless a compiled extension was built in place; building it is an install
step and is not part of the benchmark).

--trace 0 runs the workload untraced for --seconds and prints its end-to-end
metrics; --trace 1 runs the traced layer probes (see layers.py) and prints
the per-layer metrics.  BENCHMARK.json at the checkout root names the
metrics, their units and the workloads.  Every call's output is checked;
stdout ends with one JSON line: correct, attempted, failed, metrics.
Exit status is 2 when carrymul cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROCESSES = 11
WARMUP_S = 1.0
MIB = 2**20


def load_program():
    src = ROOT / "src"
    if not (src / "carrymul" / "__init__.py").is_file():
        raise ImportError(f"no carrymul package under {src}")
    sys.path.insert(0, str(src))
    import carrymul

    return carrymul


def percentile(values, p):
    """Linear-interpolation percentile, p in 0..100."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest percentile, to 0.1, with at least ten of n samples beyond it."""
    if n <= 20:
        return 50.0
    return math.floor(1000 * (n - 10) / n) / 10


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unavailable (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(carrymul, workload, args):
    from carrymul import kernels

    return {
        "backend": carrymul.BACKEND,
        "available_backends": kernels.available_backends(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape_mix": workload.mix(),
    }


def warm_up(workload, rng):
    """Untimed calls on the first round's ops, for about WARMUP_S seconds."""
    deadline = time.perf_counter() + WARMUP_S
    for op in workload.round(rng):
        try:
            workload.run(op)
        except Exception:  # the timed loop runs this op again and counts it
            pass
        if time.perf_counter() >= deadline:
            return


def timed_loop(workload, rng, seconds):
    """Closed loop, one client: whole rounds until `seconds` have passed."""
    latencies = []
    busy = 0.0
    units = attempted = failed = 0
    errors = []
    first_round = None
    deadline = time.perf_counter() + seconds
    while True:
        ops = workload.round(rng)
        first_round = first_round or ops
        for op in ops:
            attempted += 1
            started = time.perf_counter()
            elapsed = None
            try:
                out = workload.run(op)
                elapsed = time.perf_counter() - started
                ok = workload.check(op, out)
            except Exception:  # a failed op is counted, never dropped
                ok = False
                errors.append(traceback.format_exc(limit=3))
            if elapsed is None:
                elapsed = time.perf_counter() - started
            busy += elapsed
            if ok:
                latencies.append(elapsed)
                units += workload.units(op)
            else:
                failed += 1
                errors.append(f"op {attempted - 1}: wrong or no output")
        if time.perf_counter() >= deadline:
            return latencies, busy, units, attempted, failed, errors, first_round


def peak_traced_mib(calls):
    """Largest per-call tracemalloc peak, above what was live before the call."""
    peak = 0
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / MIB


def setup_seconds(workload):
    """Median over fresh interpreters of import plus one warm-up call.

    Timed inside the child, so interpreter start is not included.
    """
    code = (
        "import time\n_t0 = time.perf_counter()\n"
        + workload.SETUP
        + "print(time.perf_counter() - _t0)\n"
    )
    from workloads import run_child

    times = []
    for _ in range(SETUP_PROCESSES):
        rc, out, err, _ = run_child([sys.executable, "-c", code], str(ROOT))
        if rc != 0:
            raise RuntimeError(f"set-up process failed: {err.strip()[-500:]}")
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def end_to_end(workload, args):
    """Returns (metrics, attempted, failed, details)."""
    from carrymul.oracle import SplitMix64

    # the timed loop draws the same ops again: the warm-up only runs ahead
    warm_up(workload, SplitMix64(args.seed))
    latencies, busy, units, attempted, failed, errors, first_round = timed_loop(
        workload, SplitMix64(args.seed), args.seconds
    )
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    rss_mib = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is KiB on Linux
    peak = peak_traced_mib(workload.peak_ops(first_round))
    setup = setup_seconds(workload)

    # with no successful op there is no latency to report: null, correct=false
    p_tail = tail_percentile(len(latencies))
    tail = percentile(latencies, p_tail) if latencies else None
    metrics = {
        "latency_p50_ms": (1e3 * percentile(latencies, 50) if latencies else None, "ms"),
        "latency_tail_ms": (1e3 * tail if latencies else None, "ms"),
        "ops_per_s": (units / busy, "1/s"),
        "peak_traced_mib": (peak, "MiB"),
        "rss_peak_mib": (rss_mib, "MiB"),
        "setup_s": (setup, "s"),
    }
    details = {
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "latency_tail": {
            "percentile": p_tail,
            "samples": len(latencies),
            "samples_beyond": sum(v > tail for v in latencies) if latencies else 0,
        },
        "ops_per_s_counts": workload.throughput_unit,
        "latency_per": workload.op_unit,
        "busy_s": busy,
        "rss_peak_of": "child processes" if workload.rss_of_children else "this process",
        "errors": errors[:10],
    }
    return metrics, attempted, failed, details


def declared_metrics(section):
    """{name: unit} for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mul-large", "verify-random", "cli-trace"),
                        help="verify-random runs by hand only; BENCHMARK.json "
                        "leaves it out (see its class in workloads.py)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        carrymul = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import carrymul: {exc}", file=sys.stderr)
        return 2

    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](str(ROOT))
    report = {"provenance": provenance(carrymul, workload, args)}
    if args.trace:
        run = layers.run_layers(str(ROOT), workload, args.seed, args.seconds)
        metrics, attempted, failed = run.metrics, run.attempted, run.failed
        report["notes"] = run.notes
        declared = declared_metrics("per_layer")
    else:
        metrics, attempted, failed, details = end_to_end(workload, args)
        report.update(details)
        declared = declared_metrics("end_to_end")

    report["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    missing = sorted(set(declared) - set(metrics))
    wrong_unit = sorted(n for n in declared if n in metrics and metrics[n][1] != declared[n])
    extra = sorted(set(metrics) - set(declared))
    if extra:
        report["not_in_BENCHMARK.json"] = extra
    print(json.dumps(report, indent=1))
    if missing or wrong_unit:
        print(f"perfbench: metrics missing {missing}, units differ {wrong_unit}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
