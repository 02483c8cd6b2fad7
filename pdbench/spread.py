#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Run from the repository root:

    python3 pdbench/spread.py --workload cold-core --runs 10 [--seconds 15] [--trace 0]

Runs `pdbench/run.py` once per seed (1..runs, or --first-seed onwards) and
prints, per metric, the median of the runs and the distance between the
first and third quartiles as a share of that median; end-to-end metrics
are compared with their bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            ["python3", "pdbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}\n{out.stderr}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
            if k in bounds), flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"bound {bound:g}: " + (
                "ok" if spread < bound / 3 else "within" if spread <= bound else "OVER")
        print(f"  {name:<28} median {med:<12.6g} spread {spread:.4f}  {verdict}")


if __name__ == "__main__":
    main()
