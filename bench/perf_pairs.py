#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench/run.py for one workload.

    python3 bench/perf_pairs.py --parent ../parent --change . \\
        --workload consensus-fig5 --seed 1 --pairs 10 --seconds 20

Each root is a checkout of this repository; each runs its own
perfbench/run.py (which builds that checkout's sources) with the same
workload, seed and run length. Pair i runs the parent first when i is even and
the change first when it is odd. For every end-to-end metric that
BENCHMARK.json declares, prints every pair, both medians, the parent's
interquartile range, the change's win count (ties count for neither side) and
whether the gain rule holds: the change wins at least nine tenths of the pairs
and its median beats the parent's by more than the parent's IQR. Failed
operations are reported per side. Exits 1 if any run fails its correctness
gate, or if a root holds a .bench_build/perfbench configured from another
checkout (a copied build directory builds the other checkout's sources).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_once(root, workload, seed, seconds):
    """One perfbench run in `root`; returns its result object or None."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if result.get("correct") else None


def stale_build(root):
    """The build directory of `root` if its CMake cache names another source tree.

    perfbench/run.py configures only when the cache is missing, so a build
    directory copied from another checkout would build that checkout's sources.
    """
    build = os.path.join(root, ".bench_build", "perfbench")
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    if os.path.realpath(home) != os.path.realpath(os.path.join(root, "perfbench")):
                        return build
                    return None
    except FileNotFoundError:
        return None
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(name, better, parent, change, pairs):
    """Prints one metric's pairs and verdict; returns True if the gain rule holds."""
    sign = -1 if better == "lower" else 1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gap = sign * (c_med - p_med)
    holds = wins * 10 >= 9 * pairs and gap > iqr
    rel = (c_med - p_med) / p_med * 100 if p_med else float("nan")
    print("%s (%s is better)" % (name, better))
    print("  pairs:  " + "  ".join("%.4g/%.4g" % (p, c) for p, c in zip(parent, change)))
    print("  parent: median %.4g  quartiles %.4g..%.4g  IQR %.4g" % (p_med, p_q1, p_q3, iqr))
    print("  change: median %.4g  quartiles %.4g..%.4g  (%+.1f%%)" % (c_med, c_q1, c_q3, rel))
    print("  wins %d/%d, losses %d; gain rule (>=9/10 wins, gap > parent IQR): %s" %
          (wins, pairs, losses, "holds" if holds else "does not hold"))
    return holds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", help="also write every run's result object here as JSON")
    args = ap.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, root in roots.items():
        build = stale_build(root)
        if build:
            log("perf_pairs: %s's %s was configured for another checkout; delete it and rerun" %
                (side, build))
            return 1
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], args.workload, args.seed, args.seconds)
            if result is None:
                log("perf_pairs: pair %d: %s run failed its correctness gate" % (i, side))
                return 1
            runs[side].append(result)
            log("perf_pairs: pair %d %s: %s" % (i, side, json.dumps(
                {m: v["value"] for m, v in result["metrics"].items()})))

    print("workload %s, seed %d, %d pairs, %g s runs" %
          (args.workload, args.seed, args.pairs, args.seconds))
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        print("%s: %d of %d operations failed" % (side, failed, attempted))
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r["metrics"]] for side in runs}
        if len(values["parent"]) != args.pairs or len(values["change"]) != args.pairs:
            print("%s: not reported by every run" % name)
            continue
        summarize(name, metric["better"], values["parent"], values["change"], args.pairs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
