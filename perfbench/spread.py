#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, over two sets of runs.

Runs the benchmark command from BENCHMARK.json, with its run_seconds and
tracing off, once per seed on each workload, and then all of it a second
time, as two sets of runs. For each set it prints, per metric, the median
of the runs and the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound, and flags a spread above a third of the bound. It also
prints how far the second set's median is from the first set's, as a share
of the first, and flags a drift above the bound. It checks that every run
is correct and that the share of failed operations is the same in every
run of a workload.

Run from the repository root:

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b]
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", "0"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    # runs[s][w]: the result lines of set s on workload w, in seed order.
    runs = [{} for _ in range(SETS)]
    ok = True
    for s in range(SETS):
        for w in names:
            runs[s][w] = []
            for seed in seeds:
                r = run_once(bench, w, seed)
                runs[s][w].append(r)
                values = " ".join(f"{m}={r['metrics'][m]['value']:.6g}"
                                  for m in bounds)
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"{values}", file=sys.stderr)

    for w in names:
        all_runs = [r for s in range(SETS) for r in runs[s][w]]
        shares = {r["failed"] / r["attempted"] for r in all_runs}
        ok &= len(shares) == 1 and all(r["correct"] for r in all_runs)
        print(f"\n{w}: {SETS} x {len(seeds)} runs, "
              f"failed share {sorted(shares)}")
        head = "".join(f"{'median':>12}{'IQR/med':>9}" for _ in range(SETS))
        print(f"  {'metric':<18}{head}{'drift':>9}{'bound':>7}")
        for m in bounds:
            cells, medians = "", []
            for s in range(SETS):
                values = [r["metrics"][m]["value"] for r in runs[s][w]]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                flag = "*" if spread > bounds[m] / 3 else " "
                cells += f"{med:>12.6g}{spread:>8.4f}{flag}"
                medians.append(med)
            drift = abs(medians[1] - medians[0]) / medians[0]
            flag = "*" if drift > bounds[m] else " "
            print(f"  {m:<18}{cells}{drift:>8.4f}{flag}{bounds[m]:>7}")
    print("\n* spread above a third of the bound, or drift above the bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
