#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
                                [--json OUT]

Runs perfbench/run.py untraced once per seed 1-10 and workload,
from the repository root, for BENCHMARK.json's run_seconds, and prints
for every end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median. A metric is steady when that share stays below a third of its
bound in BENCHMARK.json. --json writes the figures, keyed by workload
and metric, in the layout of one set of perfbench/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)


def spec():
    return json.loads(Path("BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace, extra=()):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"spread: {' '.join(cmd)} exited {p.returncode}\n"
                 f"{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"spread: {' '.join(cmd)} reported incorrect output\n"
                 f"{p.stdout}")
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--json")
    args = ap.parse_args()

    bench = spec()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for workload in args.workload:
        series = {}
        for seed in SEEDS:
            result = run(workload, seed, seconds, 0)
            for name, m in result["metrics"].items():
                series.setdefault(name, []).append(m["value"])
        report[workload] = {n: summarize(v) for n, v in series.items()}
        print(f"{workload}: seeds {SEEDS[0]}-{SEEDS[-1]}")
        for name, s in report[workload].items():
            flag = ("steady" if s["iqr_share"] < bounds[name] / 3
                    else "NOISY")
            print(f"  {name:<24} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"iqr/median {s['iqr_share']:.4f} {flag}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
