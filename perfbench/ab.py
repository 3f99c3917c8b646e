#!/usr/bin/env python3
"""Same-host A/B comparison of two commits on the perfbench workloads.

    python3 perfbench/ab.py BASE [--pairs 10] [--workloads detailed-grid,warm-rerun]
                                 [--seed 1] [--seconds 15]

BASE is checked out in a local git worktree under perfbench/out/ab/ (no
network needed) and the current working tree is the other side ("head").
Both sides run the benchmark code of the working tree: perfbench/ is copied
into the worktree before building, so only the simulator's crates differ.
Each side is built once into its own target directory.

Runs are interleaved pair by pair, alternating which side runs first; pair
i uses seed SEED + i on both sides. For every workload and end-to-end
metric the script reports each side's median and quartiles, the fraction of
pairs head wins (ties count for neither), and a verdict under the bounds in
BENCHMARK.json:

  gain        head wins >= 90% of pairs and the medians differ by more than
              the base runs' interquartile distance
  regression  head's median is worse than base's by more than the bound
  unresolved  base's own spread exceeds the bound and head does not beat
              every base run
  within      none of the above

Every run is appended as one JSON record (with commit, seed, budget, nproc,
CPU model and rustc version) to perfbench/out/ab/<base>-<head>.jsonl,
followed by one summary record per workload and metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build and run_once)


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def prepare_base(root, base_sha, ab_dir):
    """Worktree of `base_sha` carrying the working tree's perfbench/."""
    wt = os.path.join(ab_dir, "base-" + base_sha[:12])
    if not os.path.isdir(wt):
        git(root, "worktree", "add", "--detach", wt, base_sha)
    dst = os.path.join(wt, "perfbench")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(HERE, dst, ignore=shutil.ignore_patterns("out", "target", "__pycache__"))
    return wt


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound):
    """Compare per-pair values of one metric (lists in pair order)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    record = {"base_median": bm, "base_q1": b1, "base_q3": b3,
              "head_median": hm, "head_q1": h1, "head_q3": h3,
              "win_fraction": wins / len(base)}
    beats_all = all(sign * (h - b) > 0 for h in head for b in base)
    if wins >= 0.9 * len(base) and abs(hm - bm) > (b3 - b1):
        record["verdict"] = "gain"
    elif sign * (bm - hm) > bound * abs(bm):
        record["verdict"] = "regression"
    elif (b3 - b1) > bound * abs(bm) and not beats_all:
        record["verdict"] = "unresolved"
    else:
        record["verdict"] = "within"
    return record


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base", help="base commit (any git revision)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    a = p.parse_args()
    workloads = a.workloads.split(",")
    for w in workloads:
        if w not in run.WORKLOADS:
            p.error(f"unknown workload {w}")

    root = git(HERE, "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base_sha = git(root, "rev-parse", a.base + "^{commit}")
    head = git(root, "describe", "--always", "--dirty", "--abbrev=12")
    ab_dir = os.path.join(root, "perfbench", "out", "ab")
    os.makedirs(ab_dir, exist_ok=True)

    sides = {"base": prepare_base(root, base_sha, ab_dir), "head": root}
    commits = {"base": base_sha[:12], "head": head}
    exes = {}
    for side, side_root in sides.items():
        built = run.build(side_root, os.path.join(ab_dir, "target-" + side))
        exes[side] = os.path.join(ab_dir, "bin-" + side)
        shutil.copy2(built, exes[side])

    context = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip(),
        "seconds": a.seconds,
    }
    log = os.path.join(ab_dir, f"{commits['base']}-{commits['head']}.jsonl")
    values = {(w, s): [] for w in workloads for s in sides}
    with open(log, "a") as out:
        for i in range(a.pairs):
            seed = a.seed + i
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for w in workloads:
                for side in order:
                    args = ["--workload", w, "--seed", str(seed), "--seconds", str(a.seconds),
                            "--trace", "0"]
                    r, budget = run.run_once(exes[side], sides[side], args)
                    if r is None or not r["correct"]:
                        sys.exit(f"ab: {side} failed on {w} seed {seed}")
                    values[(w, side)].append(r)
                    rec = dict(context, side=side, commit=commits[side], workload=w, seed=seed,
                               budget=budget, pair=i, result=r)
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
            print(f"pair {i + 1}/{a.pairs} done", file=sys.stderr)

        print(f"{'workload':<14} {'metric':<12} {'base med':>12} {'head med':>12} "
              f"{'wins':>6}  verdict")
        for w in workloads:
            for name, m in metrics.items():
                base = [r["metrics"][name]["value"] for r in values[(w, "base")]]
                head_v = [r["metrics"][name]["value"] for r in values[(w, "head")]]
                rec = verdict(base, head_v, m["better"], m["bound"])
                out.write(json.dumps(dict(context, summary=True, workload=w, metric=name,
                                          bound=m["bound"], commits=commits, **rec)) + "\n")
                print(f"{w:<14} {name:<12} {rec['base_median']:>12.4f} {rec['head_median']:>12.4f} "
                      f"{rec['win_fraction']:>6.2f}  {rec['verdict']}")
    print(f"records: {log}", file=sys.stderr)


if __name__ == "__main__":
    main()
