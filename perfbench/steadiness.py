#!/usr/bin/env python3
"""Steadiness procedure for the benchmark.

Runs every workload of BENCHMARK.json 10 times in each of --sets sets, each
run with its own seed, and prints per (workload, metric) the median, first and third
quartiles and the spread (q3 - q1) / median of every set. It then applies the
acceptance rules to the sets:

  * every end-to-end spread except setup_s stays within the metric's bound
    (setup_s is one cold set-up per process, so only its median is bounded);
  * no set's median is worse than the first set's by more than the bound;
  * the share of failed operations is exactly the same in every run.

Run from the root of a checkout:

    python3 perfbench/steadiness.py [--sets 2] [--trace 0|1] [--seconds s]
        [--seed-base 1000] [--out perfbench/results/x.json]

With --trace 1 it collects the per-layer metrics instead and only reports
them (they have no bound). Exit code 1 when a rule is broken.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds, trace):
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return (later - first) / first
    return (first - later) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    report = {}
    ok = True
    for workload in workloads:
        sets = []
        shares = set()
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(RUNS):
                seed = args.seed_base + s * RUNS + i
                result = run_once(spec["command"], workload, seed, seconds, args.trace)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
                    ok = False
                shares.add(Fraction(result["failed"], result["attempted"]))
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            sets.append({name: summarize(v) for name, v in values.items()})
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
            ok = False
        report[workload] = {"sets": sets, "failed_share": [str(x) for x in sorted(shares)]}

        print(f"== {workload}  (failed share {', '.join(str(x) for x in sorted(shares))})")
        for m in metrics:
            name = m["name"]
            cells = []
            for s, summary in enumerate(sets):
                cells.append(f"set{s + 1} median {summary[name]['median']:.6g} "
                             f"q1 {summary[name]['q1']:.6g} q3 {summary[name]['q3']:.6g} "
                             f"spread {summary[name]['spread'] * 100:.2f}%")
            verdict = ""
            if "bound" in m:
                spreads_ok = name == "setup_s" or all(
                    summary[name]["spread"] <= m["bound"] for summary in sets)
                shift = max((worse_by(m, sets[0][name]["median"], summary[name]["median"])
                             for summary in sets[1:]), default=0.0)
                shift_ok = shift <= m["bound"]
                verdict = (f"  bound {m['bound'] * 100:.0f}%, worst shift {shift * 100:+.2f}% "
                           f"-> {'ok' if spreads_ok and shift_ok else 'BROKEN'}")
                ok = ok and spreads_ok and shift_ok
            print(f"  {name:28s} " + " | ".join(cells) + verdict)

    if args.out:
        out = ROOT / args.out
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
