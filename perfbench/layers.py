"""The traced run: per-layer metrics from spans around each public call.

The benchmark calls each layer separately on the same inputs (parse, then
the raw kernels, then the `Natural` wrapping, then the algorithms wrapper,
then trace_io and the CLI) and records one span, with its parent, around
every call.  Spans stay in memory; metrics are computed from them when the
run ends.  A layer's self time is its span time minus the time its child
spans cover.

Each layer is probed on the inputs of the workload it should move:

* ``probe.mul-large``: one pair per mul-large shape class, base 10.  The
  kernels' incremental/schoolbook/check_invariant, `Natural` wrapping, the
  algorithms layer, digit counts and tracemalloc peaks per algorithm.
* ``probe.verify-random``: pairs drawn the way `random_check` draws them.
  The four kernels of one verify pair, the oracle, and `random_check`.
* ``probe.cli-trace``: the first cli-trace round.  Parse, render, trace
  JSON, in-process `cli.run` and a fresh `python -m carrymul.cli` process.
* ``probe.cases``: the kernel cases and the 40x40 mini-sweep that
  benchmarks/compare_backends.py times.

Timings are the mean over a probe's inputs of the median of REPS calls.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

from carrymul import algorithms, bench, kernels, oracle, trace_io
from carrymul.digits import Natural, parse_natural, render_natural
from carrymul.oracle import SplitMix64

from workloads import (
    CliTrace,
    draw_digits,
    run_child,
    run_cli_in_process,
    value_of,
)

REPS = 3
LARGE_SHAPES = ((256, 256), (512, 512), (1024, 1024), (1024, 64), (64, 1024))
LARGE_BASE = 10
VERIFY_PAIRS = 200
VERIFY_BATCHES = 5
CASES = ((10, 8), (10, 64), (10, 256), (16, 64), (36, 64))
CASE_REPS = 5
IMPORT_PROCESSES = 5
SPAN_COST_SPANS = 10000
MIB = 2**20


class Tracer:
    """Spans in memory: [name, parent index, start, end, key, root name]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, key=None):
        parent = self._open[-1] if self._open else None
        root = self.spans[parent][5] if parent is not None else name
        rec = [name, parent, 0.0, 0.0, key, root]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def medians(self, name, root):
        """{key: median duration} of the spans called `name` under `root`."""
        by_key = defaultdict(list)
        for n, _, start, end, key, r in self.spans:
            if n == name and r == root:
                by_key[key].append(end - start)
        return {key: statistics.median(v) for key, v in by_key.items()}

    def per_call(self, name, root):
        """Mean over inputs of the median span duration per input, seconds."""
        return statistics.fmean(self.medians(name, root).values())

    def self_share(self):
        """Share of root-span time that no child span covers (benchmark glue)."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        glue = sum(
            (end - start) - child[i]
            for i, (_, _, start, end, _, _) in enumerate(self.spans)
            if child[i]
        )
        total = sum(end - start for _, parent, start, end, _, _ in self.spans if parent is None)
        return glue / total


def peak_mib(call):
    """tracemalloc peak of one call, above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / MIB
    finally:
        tracemalloc.stop()


def wrap_trace(steps, result, base):
    """Build the Naturals of a trace from raw kernel vectors, as the
    algorithms layer does for every step sum, carry and the result."""
    wrapped = [
        (Natural(tuple(s), base), Natural(tuple(c), base)) for s, _, c in steps
    ]
    return wrapped, Natural(tuple(result), base)


class LayerRun:
    def __init__(self, root, seed):
        self.root = root
        self.seeds = SplitMix64(seed)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.metrics = {}
        self.backends = []
        for name in ("python", "compiled"):
            try:
                self.backends.append((name, kernels.get_backend(name)))
            except ValueError as exc:
                self.notes.append(
                    f"kernels.{name}.* not measured: kernels.get_backend({name!r}) "
                    f"raised ValueError: {exc}"
                )

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 50:
                self.notes.append(f"check failed: {what}")

    def put(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def repeat(self, name, key, call, reps=REPS):
        out = None
        for _ in range(reps):
            with self.tracer.span(name, key):
                out = call()
        return out

    # -- probes ------------------------------------------------------------

    def probe_mul_large(self):
        rng = SplitMix64(self.seeds.next_u64())
        root = "probe.mul-large"
        base = LARGE_BASE
        counts = defaultdict(lambda: [0, 0])
        peaks = {}
        operands = []
        with self.tracer.span(root):
            for la, lb in LARGE_SHAPES:
                key = f"{la}x{lb}"
                ad, bd = draw_digits(rng, base, la), draw_digits(rng, base, lb)
                expected = value_of(ad, base) * value_of(bd, base)
                a, b = Natural(tuple(ad), base), Natural(tuple(bd), base)
                with self.tracer.span("input", key):
                    for bname, mod in self.backends:
                        for alg in (algorithms.INCREMENTAL, algorithms.SCHOOLBOOK):
                            kernel = getattr(mod, alg)
                            seen = set()
                            for _ in range(REPS):
                                with self.tracer.span(f"kernels.{bname}.{alg}", key):
                                    out = kernel(ad, bd, base)
                                seen.add(out[2:])
                            self.check(value_of(out[1], base) == expected, f"{bname} {alg} {key}")
                            # exact work counts: repeatable, and digit_mults == la*lb
                            self.check(len(seen) == 1, f"{bname} {alg} {key} counts repeat")
                            self.check(out[2] == la * lb, f"{bname} {alg} {key} digit_mults")
                            counts[bname, alg][0] += out[2]
                            counts[bname, alg][1] += out[3]
                            if alg == algorithms.INCREMENTAL:
                                steps = out[0]
                        flags = self.repeat(
                            f"kernels.{bname}.check_invariant",
                            key,
                            lambda: mod.check_invariant(ad, bd, steps, base),
                        )
                        self.check(len(flags) == lb and all(flags), f"{bname} invariant {key}")
                        del steps, out
                    steps, result, _, _ = kernels.impl.incremental(ad, bd, base)
                    _, product = self.repeat(
                        "digits.wrap", key, lambda: wrap_trace(steps, result, base)
                    )
                    self.check(value_of(product.digits, base) == expected, f"wrap {key}")
                    del steps, result
                    for alg in algorithms.ALGORITHMS:
                        run = getattr(algorithms, f"{alg}_multiply")
                        trace = self.repeat(f"algorithms.{alg}_multiply", key, lambda: run(a, b))
                        self.check(
                            value_of(trace.result.digits, base) == expected,
                            f"algorithms {alg} {key}",
                        )
                        if alg == algorithms.INCREMENTAL:
                            flags = self.repeat(
                                "algorithms.check_invariant",
                                key,
                                lambda: algorithms.check_invariant(trace),
                            )
                            self.check(len(flags) == lb and all(flags), f"algorithms invariant {key}")
                        del trace
                operands.append((key, a, b))
        # memory is measured untimed, outside every span
        for key, a, b in operands:
            for alg in algorithms.ALGORITHMS:
                peaks[alg, key] = peak_mib(lambda: algorithms.multiply(a, b, alg))

        t = self.tracer
        for bname, _ in self.backends:
            k = f"kernels.{bname}"
            for alg in (algorithms.INCREMENTAL, algorithms.SCHOOLBOOK):
                seconds = sum(t.medians(f"{k}.{alg}", root).values())
                mults, adds = counts[bname, alg]
                self.put(f"{k}.{alg}_ms", 1e3 * t.per_call(f"{k}.{alg}", root), "ms")
                self.put(f"{k}.{alg}.digit_mults", mults, "count")
                self.put(f"{k}.{alg}.digit_adds", adds, "count")
                self.put(f"{k}.{alg}.digit_mults_per_s", mults / seconds, "1/s")
            self.put(f"{k}.check_invariant_ms", 1e3 * t.per_call(f"{k}.check_invariant", root), "ms")

        default = f"kernels.{kernels.BACKEND}"
        self.put("digits.wrap_ms", 1e3 * t.per_call("digits.wrap", root), "ms")
        ratio_names = {
            algorithms.INCREMENTAL: "algorithms.wrap_ratio",
            algorithms.SCHOOLBOOK: "algorithms.schoolbook.wrap_ratio",
        }
        for alg, ratio_name in ratio_names.items():
            wrapped = t.per_call(f"algorithms.{alg}_multiply", root)
            self.put(f"algorithms.{alg}_multiply_ms", 1e3 * wrapped, "ms")
            self.put(ratio_name, wrapped / t.per_call(f"{default}.{alg}", root), "ratio")
        self.put(
            "algorithms.check_invariant_ms",
            1e3 * t.per_call("algorithms.check_invariant", root),
            "ms",
        )
        # measured peaks next to the closed-form proxies of carrymul.bench
        for alg in algorithms.ALGORITHMS:
            for la, lb in LARGE_SHAPES:
                key = f"{la}x{lb}"
                prefix = f"algorithms.{alg}.{key}"
                self.put(f"{prefix}.peak_traced_mib", peaks[alg, key], "MiB")
                self.put(f"{prefix}.retained_intermediates", bench.retained_intermediates(alg, lb), "count")
                self.put(f"{prefix}.stored_intermediates", bench.stored_intermediates(alg, lb), "count")
            self.put(
                f"algorithms.{alg}.peak_traced_mib",
                max(peaks[alg, f"{la}x{lb}"] for la, lb in LARGE_SHAPES),
                "MiB",
            )
        big = f"{LARGE_SHAPES[2][0]}x{LARGE_SHAPES[2][1]}"
        self.put(
            "algorithms.peak_ratio",
            peaks[algorithms.INCREMENTAL, big] / peaks[algorithms.SCHOOLBOOK, big],
            "ratio",
        )
        self.put(
            "algorithms.retained_ratio",
            bench.retained_intermediates(algorithms.INCREMENTAL, LARGE_SHAPES[2][1])
            / bench.retained_intermediates(algorithms.SCHOOLBOOK, LARGE_SHAPES[2][1]),
            "ratio",
        )

    def probe_verify(self):
        rng = SplitMix64(self.seeds.next_u64())
        root = "probe.verify-random"
        bases = list(oracle.all_bases())
        with self.tracer.span(root):
            for i in range(VERIFY_PAIRS):
                base = bases[rng.bounded(len(bases))]
                la, lb = 1 + rng.bounded(16), 1 + rng.bounded(16)
                ad, bd = draw_digits(rng, base, la), draw_digits(rng, base, lb)
                expected = value_of(ad, base) * value_of(bd, base)
                with self.tracer.span("input", i):
                    for bname, mod in self.backends:
                        k = f"kernels.{bname}"
                        with self.tracer.span(f"{k}.verify_pair", i):
                            with self.tracer.span(f"{k}.verify.incremental", i):
                                steps, r_inc, _, _ = mod.incremental(ad, bd, base)
                            with self.tracer.span(f"{k}.verify.schoolbook", i):
                                _, r_sch, _, _ = mod.schoolbook(ad, bd, base)
                            with self.tracer.span(f"{k}.oracle_mul", i):
                                r_orc = mod.oracle_mul(ad, bd, base)
                            with self.tracer.span(f"{k}.verify.check_invariant", i):
                                flags = mod.check_invariant(ad, bd, steps, base)
                        self.check(
                            r_inc == r_sch == r_orc
                            and value_of(r_inc, base) == expected
                            and all(flags),
                            f"{bname} verify pair {i}",
                        )
                    a, b = Natural(tuple(ad), base), Natural(tuple(bd), base)
                    with self.tracer.span("oracle.oracle_multiply", i):
                        product = oracle.oracle_multiply(a, b)
                    self.check(value_of(product.digits, base) == expected, f"oracle pair {i}")
            for j in range(VERIFY_BATCHES):
                seed = rng.next_u64()
                with self.tracer.span("oracle.random_check", j):
                    report = oracle.random_check(100, 16, oracle.all_bases(), seed)
                self.check(report.ok() and report.pairs_checked == 100, f"random_check {seed}")

        t = self.tracer
        for bname, _ in self.backends:
            k = f"kernels.{bname}"
            self.put(f"{k}.oracle_mul_ms", 1e3 * t.per_call(f"{k}.oracle_mul", root), "ms")
            self.put(f"{k}.verify_pair_us", 1e6 * t.per_call(f"{k}.verify_pair", root), "us")
        self.put(
            "oracle.oracle_multiply_ms", 1e3 * t.per_call("oracle.oracle_multiply", root), "ms"
        )
        seconds = sum(t.medians("oracle.random_check", root).values())
        self.put("oracle.random_check_pairs_per_s", 100 * VERIFY_BATCHES / seconds, "1/s")

    def probe_cli(self):
        workload = CliTrace(self.root)
        ops = workload.round(SplitMix64(self.seeds.next_u64()))
        root = "probe.cli-trace"
        out_bytes = []
        with self.tracer.span(root):
            for i, op in enumerate(ops):
                base = op["base"]
                with self.tracer.span("input", i):
                    a = self.repeat("digits.parse_natural", (i, "a"), lambda: parse_natural(op["a"], base))
                    b = self.repeat("digits.parse_natural", (i, "b"), lambda: parse_natural(op["b"], base))
                    with self.tracer.span("algorithms.incremental_multiply", i):
                        trace = algorithms.incremental_multiply(a, b)
                    text = self.repeat("digits.render_natural", i, lambda: render_natural(trace.result))
                    doc = self.repeat(
                        "trace_io.render_trace_json", i, lambda: trace_io.render_trace_json(trace)
                    )
                    out_bytes.append(len(doc.encode()))
                    code, out = self.repeat("cli.run", i, lambda: run_cli_in_process(workload.argv(op)))
                    self.check(code == 0 and out == doc, f"cli.run op {i}")
                    argv = [sys.executable, "-m", "carrymul.cli", *workload.argv(op)]
                    with self.tracer.span("cli.process", i):
                        code, out, _, _ = run_child(argv, self.root)
                    self.check(
                        out == doc and workload.check(op, (code, out))
                        and int(text, base) == op["expected"],
                        f"cli process op {i}",
                    )
        import_s = []
        code = (
            "import time\n_t0 = time.perf_counter()\nimport carrymul.cli\n"
            "print(time.perf_counter() - _t0)\n"
        )
        for _ in range(IMPORT_PROCESSES):
            rc, out, err, _ = run_child([sys.executable, "-c", code], self.root)
            self.check(rc == 0, f"import carrymul.cli: {err.strip()[-200:]}")
            if rc == 0:
                import_s.append(float(out.split()[-1]))

        t = self.tracer
        self.put("digits.parse_natural_us", 1e6 * t.per_call("digits.parse_natural", root), "us")
        self.put("digits.render_natural_us", 1e6 * t.per_call("digits.render_natural", root), "us")
        self.put(
            "trace_io.render_trace_json_ms",
            1e3 * t.per_call("trace_io.render_trace_json", root),
            "ms",
        )
        self.put("trace_io.bytes_out", statistics.fmean(out_bytes), "bytes")
        run_ms = 1e3 * t.per_call("cli.run", root)
        process_ms = 1e3 * t.per_call("cli.process", root)
        self.put("cli.import_ms", 1e3 * statistics.median(import_s), "ms")
        self.put("cli.run_ms", run_ms, "ms")
        self.put("cli.process_ms", process_ms, "ms")
        self.put("cli.startup_ms", process_ms - run_ms, "ms")

    def probe_cases(self):
        """The cases of benchmarks/compare_backends.py, one metric each."""
        rng = SplitMix64(self.seeds.next_u64())
        root = "probe.cases"
        with self.tracer.span(root):
            operands = []
            for base, length in CASES:
                ad, bd = draw_digits(rng, base, length), draw_digits(rng, base, length)
                operands.append((base, length, ad, bd, value_of(ad, base) * value_of(bd, base)))
            a64, b64 = draw_digits(rng, 10, 64), draw_digits(rng, 10, 64)
            small = [small_digits(x) for x in range(40)]
            for bname, mod in self.backends:
                k = f"kernels.{bname}.case"
                for base, length, ad, bd, expected in operands:
                    for alg, call in (
                        ("incremental", lambda: mod.incremental(ad, bd, base)[1]),
                        ("schoolbook", lambda: mod.schoolbook(ad, bd, base)[1]),
                        ("oracle", lambda: mod.oracle_mul(ad, bd, base)),
                    ):
                        name = f"{k}.{alg}_{length}d_b{base}_us"
                        product = self.repeat(name, None, call, CASE_REPS)
                        self.check(value_of(product, base) == expected, name)

                def invariant_case():
                    steps, _, _, _ = mod.incremental(a64, b64, 10)
                    return mod.check_invariant(a64, b64, steps, 10)

                flags = self.repeat(f"{k}.invariant_64d_b10_us", None, invariant_case, CASE_REPS)
                self.check(all(flags), f"{k}.invariant_64d_b10_us")

                def sweep():
                    wrong = 0
                    for x in range(40):
                        for y in range(40):
                            _, r1, _, _ = mod.incremental(small[x], small[y], 10)
                            _, r2, _, _ = mod.schoolbook(small[x], small[y], 10)
                            r3 = mod.oracle_mul(small[x], small[y], 10)
                            wrong += not (r1 == r2 == r3 == small_digits(x * y))
                    return wrong

                wrong = self.repeat(f"{k}.sweep_40x40_ms", None, sweep, CASE_REPS)
                self.check(wrong == 0, f"{k}.sweep_40x40_ms")

        medians = {}
        for n, _, start, end, _, r in self.tracer.spans:
            if r == root and n != root:
                medians.setdefault(n, []).append(end - start)
        for name, times in medians.items():
            scale = 1e3 if name.endswith("_ms") else 1e6
            self.put(name, scale * statistics.median(times), name.rsplit("_", 1)[1])
        if len(self.backends) > 1:
            for name in list(self.metrics):
                if name.startswith("kernels.python.case."):
                    other = name.replace("kernels.python.", "kernels.compiled.")
                    speedup = self.metrics[name][0] / self.metrics[other][0]
                    self.put(name.replace("kernels.python.", "kernels.speedup."), speedup, "ratio")

    def tracing_overhead(self, workload, seed, seconds):
        """Traced against untraced calls of the workload, same inputs, same process.

        Every op runs twice, once bare and once inside an op span holding a
        span around the workload call; the order alternates per op.
        """
        rng = SplitMix64(seed)
        bare, traced = [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            for op in workload.round(rng):
                for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                    started = time.perf_counter()
                    if with_spans:
                        with self.tracer.span("op", i):
                            with self.tracer.span(f"workload.{workload.name}", i):
                                out = workload.run(op)
                    else:
                        out = workload.run(op)
                    (traced if with_spans else bare).append(time.perf_counter() - started)
                    self.check(workload.check(op, out), f"{workload.name} op {i}")
                i += 1
            if time.perf_counter() >= deadline:
                break
        self.put("trace.overhead_ratio", statistics.median(traced) / statistics.median(bare), "ratio")

        probe = Tracer()
        started = time.perf_counter()
        for _ in range(SPAN_COST_SPANS):
            with probe.span("empty"):
                pass
        self.put("trace.span_cost_us", 1e6 * (time.perf_counter() - started) / SPAN_COST_SPANS, "us")
        self.put("trace.self_share", self.tracer.self_share(), "ratio")


def small_digits(value):
    return [int(c) for c in reversed(str(value))] if value else []


def run_layers(root, workload, seed, seconds):
    """All probes, then the tracing-overhead loop of the chosen workload for
    what is left of `seconds` (at least one round)."""
    started = time.perf_counter()
    run = LayerRun(root, seed)
    run.probe_mul_large()
    run.probe_verify()
    run.probe_cli()
    run.probe_cases()
    run.tracing_overhead(workload, seed, seconds - (time.perf_counter() - started))
    return run
