#!/usr/bin/env python3
"""The reproduction's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload consensus-fig5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (the simulator libraries plus the perfbench binary) into
.bench_build/perfbench, runs one workload in its own process, gates the run on
correctness and prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics, with --trace 1 the per-layer ones. BENCHMARK.json gives
each metric's unit and direction; perfbench/metrics.json gives its layer,
definition, and the end-to-end metric and workload it should move.

Any failed correctness check (safety, chain consistency, honest nodes or a
restarted/joined node disagreeing on tip or state, a count that differs from
an earlier run of the same seed and build) exits 1 without a result line.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("consensus-fig5", "payments-1m", "restart-join")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_metric_map():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def units(bench, kind):
    """Name -> unit of BENCHMARK.json's end_to_end or per_layer metrics."""
    return {m["name"]: m["unit"] for m in bench[kind]}


def reported(metric_map, bench, workload):
    """End-to-end numbers the report prints for a workload, in order."""
    names = [m["name"] for m in bench["end_to_end"]]
    names += [n for n, m in metric_map["metrics"].items()
              if m.get("end_to_end") and workload in m["workloads"]]
    return names


def build():
    """Configures and builds the binary; returns False if that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sim_harness.h")):
        log("perfbench: repository sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def binary_key():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the parsed result or None on any failure."""
    data_dir = os.path.join(ROOT, ".bench_build", "run", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(data_dir, ignore_errors=True)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--data-dir=" + data_dir]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    finally:
        keep = os.path.join(ROOT, ".bench_build", "spans")
        for name in os.listdir(data_dir) if os.path.isdir(data_dir) else []:
            if name.startswith("spans-"):
                os.makedirs(keep, exist_ok=True)
                shutil.move(os.path.join(data_dir, name), os.path.join(keep, name))
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("PERFBENCH ")]
    if proc.returncode != 0 or len(lines) != 1:
        log("perfbench: %s exited %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[0][len("PERFBENCH "):])


def check_counts(result, workload, seed, seconds, extra, metric_map):
    """Exact counts must repeat across runs of one seed and build."""
    exact = sorted(n for n, m in metric_map["metrics"].items() if m.get("exact"))
    counts = {n: result["counts"][n] for n in exact}
    tag = "%s-%d-%g%s.json" % (workload, seed, seconds, "".join(extra).replace("-", "_"))
    path = os.path.join(ROOT, ".bench_build", "counts", binary_key(), tag)
    if os.path.isfile(path):
        with open(path) as f:
            before = json.load(f)
        diff = [n for n in exact if before.get(n) != counts[n]]
        for n in diff:
            log("perfbench: count %s was %s for this seed and build, now %s"
                % (n, before.get(n), counts[n]))
        return not diff
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"
    except OSError:
        return "none (git not installed)"


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            return m.group(1) if m else "unknown"
    except OSError:
        return "unknown"


def report(result, metric_map, bench, workload):
    """Human-readable report: the run record and every end-to-end number."""
    rec = result["record"]
    lines = [
        "run record: workload=%s seed=%s nodes=%s rounds=%s message_delay=%r"
        % (workload, rec["seed"], rec["nodes"], rec["rounds"], rec["message_delay"]),
        "run record: nproc=%d compiler=%r build_type=%s git=%s sim_workers=%s "
        "exec_workers=%s verify_workers=%s host=%s"
        % (os.cpu_count() or 0, rec["compiler"], build_type(), git_sha(), rec["sim_workers"],
           rec["exec_workers"], rec["verify_workers"], platform.machine()),
        "failed ops: " + "; ".join("%s %s" % (k[len("ops_"):], v)
                                   for k, v in sorted(rec.items()) if k.startswith("ops_")),
    ]
    for name in reported(metric_map, bench, workload):
        v = result["end_to_end"].get(name)
        if v is None:
            continue
        line = "%-22s %.6g %s" % (name, v["value"], v["unit"])
        if name == "failed_op_ratio":
            line += " (%d failed of %d attempted)" % (result["failed"], result["attempted"])
        lines.append(line)
    layer = result["per_layer"]
    if "obs.trace_overhead_pct" in layer:
        overhead = layer["obs.trace_overhead_pct"]["value"]
        spread = layer["obs.timing_spread_pct"]["value"]
        lines.append("%-22s %.3g %% %s" % (
            "trace overhead", overhead,
            "(unresolved: within the untraced sub-runs' %.3g %% spread)" % spread
            if abs(overhead) < spread else "(larger than the %.3g %% timing spread)" % spread))
    return lines


def contract_metrics(result, bench, trace):
    """The result line's metrics: every end_to_end (--trace 0) or per_layer
    (--trace 1) metric of BENCHMARK.json, with its unit from there."""
    out = {}
    for name, unit in units(bench, "per_layer" if trace else "end_to_end").items():
        source = result["per_layer"] if name in result["per_layer"] else result["end_to_end"]
        out[name] = {"value": source.get(name, {"value": 0})["value"], "unit": unit}
    return out


def run_one(workload, seed, seconds, trace, extra=()):
    """Runs and checks one workload; returns (result, metrics) or None."""
    metric_map = load_metric_map()
    bench = load_benchmark()
    result = run_binary(workload, seed, seconds, trace, extra)
    if result is None:
        return None
    if not check_counts(result, workload, seed, seconds, extra, metric_map):
        return None
    expected = list(units(bench, "end_to_end"))
    if trace:
        expected += [n for n in units(bench, "per_layer")
                     if workload in metric_map["metrics"][n]["workloads"]]
    if int(result["record"]["latency_samples"]) < 1000:
        expected = [n for n in expected if n != "round_latency_p99_s"]  # Needs 1,000 samples.
    for name in expected:
        if name not in result["per_layer"] and name not in result["end_to_end"]:
            log("perfbench: metric %s missing" % name)
            return None
    return result, contract_metrics(result, bench, trace)


def self_test():
    """Reduced-size check of the benchmark itself (a few minutes)."""
    metric_map = load_metric_map()
    bench = load_benchmark()
    ok = True

    def expect(cond, what):
        nonlocal ok
        print("[%s] %s" % ("ok" if cond else "FAIL", what), flush=True)
        ok = ok and cond

    seed = 1000
    for workload in WORKLOADS:
        first = run_one(workload, seed, 1, 0, ["--small"])
        second = run_one(workload, seed, 1, 1, ["--small"])
        expect(first is not None and second is not None,
               "%s: two runs of seed %d pass every check (counts repeat)" % (workload, seed))
        if first is None or second is None:
            continue
        result, metrics = first
        lines = report(result, metric_map, bench, workload)
        names = reported(metric_map, bench, workload)
        if int(result["record"]["latency_samples"]) < 1000:
            names = [n for n in names if n != "round_latency_p99_s"]  # Needs 1,000 samples.
        every_unit = dict(units(bench, "per_layer"), **units(bench, "end_to_end"))
        printed_once = all(
            sum(1 for l in lines if l.split()[0] == n) == 1 and
            result["end_to_end"][n]["unit"] == every_unit[n] for n in names
            if n in result["end_to_end"])
        expect(printed_once and all(n in result["end_to_end"] for n in names),
               "%s: every end-to-end metric printed once with its unit" % workload)
        expect(set(metrics) == set(units(bench, "end_to_end")) and
               all(v["value"] > 0 for v in metrics.values()),
               "%s: every gated end-to-end metric is present and non-zero" % workload)
        expect(set(second[1]) == set(units(bench, "per_layer")),
               "%s: traced run writes every per-layer metric" % workload)
        corrupted = run_binary(workload, seed, 1, 0, ["--small", "--corrupt-fingerprint"])
        expect(corrupted is None,
               "%s: a corrupted fingerprint fails the run without metrics" % workload)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    out = run_one(args.workload, args.seed, args.seconds, args.trace)
    if out is None:
        return 1
    result, metrics = out
    for line in report(result, load_metric_map(), load_benchmark(), args.workload):
        print(line)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
