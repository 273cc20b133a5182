#!/usr/bin/env python3
"""Write BENCH_<pr>.json: the benchmark run on a parent and a change checkout.

    python3 scripts/write_bench.py --pr 8 --parent ../parent --change . \\
        --layer-seeds 811 812 813 --seeds 801 802 803 804 805 806 807 808 809 810 \\
        --setup-pairs 40

Both checkouts must hold perfbench/ and BENCHMARK.json; each side runs from
its own directory, with whatever kernel backend that tree provides.  For
every workload in the change's BENCHMARK.json, each --layer-seeds seed runs
``perfbench/run.py --trace 1`` once per side, and each --seeds seed runs one
end-to-end pair (``--trace 0`` for the declared run_seconds).  The side
that runs first alternates from seed to seed.  The file records the
backend, the commits, the shape mix, per-layer medians with the
``algorithms.incremental.*.peak_traced_mib`` peaks picked out, and each
end-to-end metric's quartiles, pairs won, attempted/failed counts and
``worse_by``, the change median's relative distance from the parent
median, positive when worse.  A metric is ``within_bound`` unless
``worse_by`` exceeds its BENCHMARK.json bound; ``outside_bound`` lists
every ``workload/metric`` that is not.

``setup_s`` spreads about as widely as its bound between runs, so
--setup-pairs N times it again: N alternating pairs of the checkout's own
``perfbench/run.py`` ``setup_seconds`` (the median over fresh interpreters
of the SETUP string in its ``workloads.py``), summarised as above under
``setup_retimed``.  ``dirty`` records per side whether ``git status
--porcelain`` lists changes, since perfbench names an uncommitted tree by
its parent commit.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LAYER_SECONDS = 10
SIDES = ("parent", "change")
# run from a checkout's root: its perfbench/run.py and workloads.py
SETUP_CHILD = (
    "import sys\n"
    "sys.path[:0] = ['perfbench', 'src']\n"
    "import run, workloads\n"
    "print(run.setup_seconds(workloads.WORKLOADS[sys.argv[1]]))\n"
)


def run_bench(checkout, workload, seed, seconds, trace):
    """(report, result) of one perfbench run; exits if the run fails."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} failed:\n{done.stderr[-2000:]}")
    head, _, last = done.stdout.rstrip("\n").rpartition("\n")
    return json.loads(head), json.loads(last)


def alternating(checkouts, seeds, run):
    """{side: [run(checkout, seed) per seed]}, the first side alternating."""
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES[::-1] if i % 2 else SIDES:
            print(f"{side} seed {seed}", file=sys.stderr, flush=True)
            runs[side].append(run(checkouts[side], seed))
    return runs


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def per_layer(runs):
    """Median and runs of every per-layer metric, per side."""
    names = runs["change"][0][0]["metrics"]
    out = {}
    for name in names:
        series = {
            side: [r["metrics"][name]["value"] for r, _ in runs[side] if name in r["metrics"]]
            for side in SIDES
        }
        entry = {"unit": names[name]["unit"]}
        for side in SIDES:
            values = [v for v in series[side] if v is not None]
            entry[f"{side}_median"] = statistics.median(values) if values else None
            entry[f"{side}_runs"] = series[side]
        out[name] = entry
    return out


def end_to_end(runs, declared):
    """Quartiles, pairs won, counts and distance from the bound of every
    end-to-end metric."""
    counts = {
        side: {
            "attempted": [res["attempted"] for _, res in runs[side]],
            "failed": [res["failed"] for _, res in runs[side]],
        }
        for side in SIDES
    }
    metrics = {
        spec["name"]: compare(
            {
                side: [res["metrics"][spec["name"]]["value"] for _, res in runs[side]]
                for side in SIDES
            },
            spec,
        )
        for spec in declared
    }
    return {"counts": counts, "metrics": metrics}


def compare(series, spec):
    """Quartiles, pairs won and distance from the bound of one metric, from
    {side: [value per pair]} and its BENCHMARK.json entry."""
    lower = spec["better"] == "lower"
    won = sum(
        (c < p) if lower else (c > p)
        for p, c in zip(series["parent"], series["change"])
    )
    entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
    for side in SIDES:
        entry[f"{side}_q1_median_q3"] = quartiles(series[side])
        entry[f"{side}_runs"] = series[side]
    entry["change_better_pairs"] = f"{won}/{len(series['parent'])}"
    parent, change = (entry[f"{side}_q1_median_q3"][1] for side in SIDES)
    worse = (change - parent) / parent
    entry["worse_by"] = worse if lower else -worse
    entry["within_bound"] = entry["worse_by"] <= spec["bound"]
    return entry


def setup_seconds(checkout, workload):
    """One ``setup_s`` reading of workload, taken by the checkout's own
    perfbench: ``run.setup_seconds`` times the SETUP string of its
    ``workloads.py`` in fresh interpreters and returns their median."""
    cmd = [sys.executable, "-c", SETUP_CHILD, workload]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"set-up timing of {workload} in {checkout} failed:\n{done.stderr[-2000:]}")
    return float(done.stdout.split()[-1])


def dirty(checkout):
    """Whether the checkout has uncommitted changes; None outside git.
    perfbench names a checkout by the commit it reads from .git alone."""
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=checkout, capture_output=True, text=True
    )
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--layer-seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    parser.add_argument("--setup-pairs", type=int, default=0)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {"pr": args.pr, "backend": {}, "commits": {},
           "dirty": {side: dirty(checkouts[side]) for side in SIDES}, "machine": None,
           "shape_mix": {}, "per_layer": {}, "peaks": {}, "end_to_end": {},
           "setup_retimed": {}, "outside_bound": []}
    setup_spec = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    for workload in (w["name"] for w in spec["workloads"]):
        layers = alternating(
            checkouts, args.layer_seeds,
            lambda root, seed: run_bench(root, workload, seed, LAYER_SECONDS, 1),
        )
        for side in SIDES:
            prov = layers[side][0][0]["provenance"]
            doc["backend"][side] = prov["backend"]
            doc["commits"][side] = prov["git_commit"]
        doc["machine"] = {k: prov[k] for k in ("python", "implementation", "machine", "cpus")}
        doc["shape_mix"][workload] = prov["shape_mix"]
        medians = per_layer(layers)
        doc["per_layer"][workload] = {
            "runs": f"perfbench/run.py --trace 1 --seconds {LAYER_SECONDS}, "
                    f"seeds {args.layer_seeds}, order alternating",
            "metrics": medians,
        }
        doc["peaks"][workload] = {
            name: {side: medians[name][f"{side}_median"] for side in SIDES}
            for name in medians
            if name.startswith("algorithms.incremental.") and name.endswith(".peak_traced_mib")
        }
        if args.seeds:
            pairs = alternating(
                checkouts, args.seeds,
                lambda root, seed: run_bench(root, workload, seed, seconds, 0),
            )
            doc["end_to_end"][workload] = {
                "runs": f"perfbench/run.py --trace 0 --seconds {seconds}, "
                        f"seeds {args.seeds}, one pair per seed, order alternating",
                **end_to_end(pairs, spec["end_to_end"]),
            }
            doc["outside_bound"] += [
                f"{workload}/{name}"
                for name, entry in doc["end_to_end"][workload]["metrics"].items()
                if not entry["within_bound"]
            ]
        if args.setup_pairs:
            times = alternating(
                checkouts, range(args.setup_pairs),
                lambda root, seed: setup_seconds(root, workload),
            )
            doc["setup_retimed"][workload] = {
                "runs": f"{args.setup_pairs} pairs of perfbench/run.py setup_seconds, "
                        "order alternating",
                **compare(times, setup_spec),
            }
    out = checkouts["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
