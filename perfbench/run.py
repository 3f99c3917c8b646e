#!/usr/bin/env python3
"""Build and run the looseloops performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload detailed-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --reference             # regenerate perfbench/reference/

The benchmark is the Rust package in perfbench/, built in release mode
into $CARGO_TARGET_DIR (default .bench_build). This script builds it, runs
it as a child process, adds peak_rss_mb (the child's peak resident memory,
from wait4) to the end-to-end metrics, and prints the result as the last
line of stdout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["detailed-grid", "sampled-all", "warm-rerun"]


def build(root, target=None):
    """Build the benchmark under `root` into `target` (default
    $CARGO_TARGET_DIR, else .bench_build); return the executable's path."""
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        sys.exit("perfbench: the simulator's crates are not here; run from the repository root")
    target = target or os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def run_once(exe, root, args):
    """Run the benchmark binary once from `root`.

    Returns (result, budget): the parsed result object, with peak_rss_mb
    added to the end-to-end metrics, and the run budget the binary printed
    before it; or (None, None) when the run failed.
    """
    proc = subprocess.Popen([exe] + args, cwd=root, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
        return None, None
    result = json.loads(lines[-1])
    budget = next((json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("budget ")), None)
    if "--trace" not in args or args[args.index("--trace") + 1] == "0":
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MiB"}
    return result, budget


def table(results):
    names = []
    for r in results.values():
        for n in r["metrics"]:
            if n not in names:
                names.append(n)
    print(f"{'metric':<14}" + "".join(f"{w:>16}" for w in results))
    for n in names:
        row = []
        for r in results.values():
            m = r["metrics"].get(n)
            row.append(f"{m['value']:>16.4f}" if m else f"{'-':>16}")
        unit = next(r["metrics"][n]["unit"] for r in results.values() if n in r["metrics"])
        print(f"{n:<14}" + "".join(row) + f"  {unit}")
    rates = [r["failed"] / r["attempted"] for r in results.values()]
    print(f"{'error_rate':<14}" + "".join(f"{x:>16.4f}" for x in rates) + "  fraction")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--reference", action="store_true", help="regenerate perfbench/reference/")
    a = p.parse_args()
    if not a.reference and a.workload is None:
        p.error("--workload is required")

    root = os.path.dirname(HERE)
    exe = build(root)
    if a.reference:
        sys.exit(subprocess.run([exe, "--reference"], cwd=root).returncode)

    common = ["--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    if a.workload != "all":
        result, _ = run_once(exe, root, ["--workload", a.workload] + common)
        if result is None:
            sys.exit(1)
        print(json.dumps(result))
        return

    results = {}
    for w in WORKLOADS:
        r, _ = run_once(exe, root, ["--workload", w] + common)
        if r is None:
            sys.exit(1)
        results[w] = r
    table(results)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
