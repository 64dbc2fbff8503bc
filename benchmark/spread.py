#!/usr/bin/env python3
"""Runs BENCHMARK.json's command on every workload with several seeds and
prints, per workload x end-to-end metric, the median and the interquartile
spread as a share of the median, next to the metric's bound.

    python3 benchmark/spread.py [--seeds 10] [--first-seed 1] [--workload NAME]...

The builder contract accepts the benchmark only while every spread (setup_s
excepted) stays within its bound; aim for a third of it. Run from the repo
root; results are appended to benchmark/out/<tag>-<first-seed>.jsonl, which
`--compare` reads. Two rounds on different first seeds, compared with
`--compare`, reproduce the driver's second check (the second round's medians
must not be worse than the first's by more than the bound).
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float,
                    help="override run_seconds (setup_s does not depend on it; latencies do)")
    ap.add_argument("--tag", default="spread", help="result file is out/<tag>-<first-seed>.jsonl")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = ROOT / "benchmark" / "out" / f"{args.tag}-{args.first_seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
                "--out", str(out),
            ]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            assert result["correct"], (workload, seed, result)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            median = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [median] * 3
            spread = (q[2] - q[0]) / median
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"{workload:<16} {m['name']:<12} median {median:>14.3f} "
                  f"spread {spread:7.4f}  bound {m['bound']:.2f}  spread/bound {share:5.2f}",
                  flush=True)
    print(f"worst spread/bound (setup_s excepted): {worst:.2f}")


if __name__ == "__main__":
    main()
