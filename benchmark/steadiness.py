#!/usr/bin/env python3
"""Is the benchmark steady enough to gate on?

Runs the command in BENCHMARK.json the way the gating driver does - ten
times on each workload, each time with another --seed - and prints, for
every end-to-end metric, the distance between the first and third
quartile of the ten values (statistics.quantiles(values, n=4)) as a
share of their median, next to the metric's bound. The driver refuses a
benchmark whose spread exceeds a bound; aim for a third of it.

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run it from the repo root, on an otherwise idle host.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: not correct: {result}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        per_run = (time.time() - started) / args.runs
        print(f"{workload}: {args.runs} runs, {per_run:.1f} s each")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median
            share = spread / m["bound"]
            worst = max(worst, 0.0 if m["name"] == "setup_s" else share)
            flag = "" if share <= 1 / 3 else ("  <- over a third of the bound" if share <= 1 else "  <- OVER THE BOUND")
            print(f"  {m['name']:<18} median {median:<14.6g} spread {spread:7.2%}  bound {m['bound']:6.1%}{flag}")
    print(f"worst spread (setup_s aside) is {worst:.2f} of its bound")
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
