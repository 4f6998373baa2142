#!/usr/bin/env python3
"""Measures how steady the benchmark is, the way its acceptance is judged.

Usage, from the root of the repository:

    python3 perfbench/steady.py --workload <name> [--seeds 1-10] [--seconds 10]

Runs perfbench/run.py once per seed and prints, for each end-to-end
metric, the median of the runs, the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, and the
metric's bound from BENCHMARK.json. Every spread but set-up's must stay
within its bound; the aim is a third of it. The printed, ungated latency
tail (p99_ms) is summarized the same way, without a bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    tails = []
    for seed in a.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: run not correct: {result}", file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        tails += [float(l.split()[1]) for l in done.stdout.splitlines() if l.split()[:1] == ["p99_ms"]]
        for k, v in row.items():
            values[k].append(v)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{a.workload:<14} {m['name']:<16} median {med:<12.6g} spread {spread:7.2%} "
              f"bound {m['bound']:.0%}  spread/bound {spread / m['bound']:.2f}")
    if len(tails) >= 2:
        q1, _, q3 = statistics.quantiles(tails, n=4)
        med = statistics.median(tails)
        print(f"{a.workload:<14} {'p99_ms':<16} median {med:<12.6g} spread {(q3 - q1) / med:7.2%} "
              f"(printed, not gated; range {min(tails):.6g} to {max(tails):.6g})")
    print(f"{a.workload}: worst spread/bound {worst:.2f} (aim < 0.33, limit 1.0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
