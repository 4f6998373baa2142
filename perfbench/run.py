#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With `--workload all` it runs every workload of BENCHMARK.json in turn
and prints each one's output; it fails if any of them fails.

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
links the repository's crates by path. It is built into $CARGO_TARGET_DIR,
or .bench_build when that is unset, and works in .bench_work. The last
line of standard output is the run's JSON result; it is checked against
the metric tables of BENCHMARK.json before it is printed.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(target_dir: Path) -> Path:
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed ({done.returncode})")
    return target_dir / "release" / "apistudy-perfbench"


def expected_metrics(traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer" if traced else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def check(result: dict, traced: bool) -> str:
    """Returns what is wrong with a result line, or an empty string."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = expected_metrics(traced)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {got} differ from BENCHMARK.json {want}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    return ""


def run_one(exe: Path, args: list, traced: bool) -> int:
    work = ROOT / ".bench_work"
    proc = subprocess.Popen(
        [str(exe), *args, "--work-dir", str(work)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        # A killed run leaves its scratch directory (named after its pid).
        for stale in work.glob(f"*-{proc.pid}"):
            shutil.rmtree(stale, ignore_errors=True)
        print(f"run.py: the run took longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("".join(f"{l}\n" for l in lines if not l.startswith("{")))
        print(f"run.py: the benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        problem = check(json.loads(lines[-1]), traced)
    except (ValueError, AttributeError) as e:
        problem = f"unreadable result line: {e}"
    if problem:
        sys.stdout.write("".join(f"{l}\n" for l in lines[:-1]))
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


def main() -> int:
    args = sys.argv[1:]
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    exe = build(target)
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] != ["all"]:
        return run_one(exe, args, traced)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    codes = [run_one(exe, args[:at] + [w["name"]] + args[at + 1:], traced)
             for w in spec["workloads"]]
    return max(codes)

if __name__ == "__main__":
    sys.exit(main())
