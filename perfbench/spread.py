"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload pretrain --seeds 1-10 --seconds 30

For every end-to-end metric: the median, and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the bound BENCHMARK.json gives it. Runs are sequential, one
benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, 0)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {len(args.seeds)} seeds, {seconds} s each")
    print(f"{'metric':22s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}  flag")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "over" if share > bound else (
                "ok" if share < bound / 3 else "within")
        print(f"{name:22s} {med:12.5g} {share:8.4f} "
              f"{bound if bound is not None else '-':>6}  {flag}")
        print(f"    values: {' '.join(f'{v:.5g}' for v in vals)}")


if __name__ == "__main__":
    main()
