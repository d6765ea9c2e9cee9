#!/usr/bin/env python3
"""Benchmark runner for finelb.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <result-or-dir> <result-or-dir>

A run builds the runtime and the benchmark binary from source (CMake,
Release) into $CARGO_TARGET_DIR/finelb, or .bench_build/finelb when the
variable is unset, then runs one workload. The last line of standard output
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json when --trace is 0 and every
per-layer metric when it is 1. The full result, stamped with a host
fingerprint, is kept under <build>/results/. A traced run also writes its
spans (Chrome trace-event JSON), the lifecycle trace, the per-layer table
and the tracing overhead against the untraced runs of the same workload
under <build>/traces/.

--compare prints the median change of every metric between two sets of
results, and refuses when their host fingerprints differ.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")
BINARY_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "finelb"))


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "finelb_perfbench")


def read_first(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def fingerprint(doc):
    cpu = ""
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "build_type": doc.get("build_type", ""),
        "telemetry": doc.get("telemetry", ""),
        "timerslack_ns": read_first("/proc/self/timerslack_ns"),
    }


def load_results(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    results = []
    for name in files:
        with open(name) as f:
            results.append(json.load(f))
    return results


def compare(a_path, b_path):
    a, b = load_results(a_path), load_results(b_path)
    if not a or not b:
        log("nothing to compare")
        return 2
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in a + b}
    if len(prints) != 1:
        log("refusing to compare results across host fingerprints:")
        for p in sorted(prints):
            log("  " + p)
        return 2
    def medians(results):
        values = {}
        for r in results:
            for section in ("metrics", "layers"):
                for name, m in r[section].items():
                    values.setdefault((r["workload"], name), []).append(m["value"])
        return {k: statistics.median(v) for k, v in values.items()}
    ma, mb = medians(a), medians(b)
    print(f"{'workload':24} {'metric':40} {'A median':>14} {'B median':>14} {'B/A-1':>9}")
    for key in sorted(set(ma) & set(mb)):
        va, vb = ma[key], mb[key]
        change = f"{vb / va - 1:+9.2%}" if va else "      n/a"
        print(f"{key[0]:24} {key[1]:40} {va:14.4f} {vb:14.4f} {change}")
    return 0


def tracing_overhead(doc, results_dir, trace_dir):
    """Traced minus untraced median of every end-to-end metric."""
    untraced = [r for r in load_results(results_dir)
                if r["workload"] == doc["workload"] and not r["trace"]
                and r["fingerprint"] == doc["fingerprint"]]
    lines = [f"tracing overhead on {doc['workload']}: traced run (seed "
             f"{doc['seed']}) minus the median of {len(untraced)} untraced run(s)"]
    for name, m in sorted(doc["metrics"].items()):
        base = [r["metrics"][name]["value"] for r in untraced if name in r["metrics"]]
        if not base:
            lines.append(f"  {name:28} {m['value']:14.4f} {m['unit']:6} (no untraced run)")
            continue
        ref = statistics.median(base)
        rel = f"{m['value'] / ref - 1:+8.2%}" if ref else "     n/a"
        lines.append(f"  {name:28} {m['value']:14.4f} {m['unit']:6} "
                     f"untraced {ref:14.4f}  diff {m['value'] - ref:+12.4f} {rel}")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(trace_dir, doc["workload"] + ".overhead.txt"), "w") as f:
        f.write(text)
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {names}")
        return 2

    bdir = build_dir()
    binary = build(bdir)
    trace_dir = os.path.join(bdir, "traces")
    results_dir = os.path.join(bdir, "results")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", trace_dir],
        stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark binary printed nothing (exit {proc.returncode})")
        return 1
    doc = json.loads(lines[-1])
    doc["fingerprint"] = fingerprint(doc)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = doc["layers"] if args.trace else doc["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        log(f"benchmark did not report {missing}")
        return 1
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    correct = bool(doc["correct"]) and proc.returncode == 0

    out_name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    with open(os.path.join(results_dir, out_name), "w") as f:
        json.dump(doc, f, indent=1)

    print(f"finelb benchmark: {args.workload} seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("fingerprint: " + json.dumps(doc["fingerprint"], sort_keys=True))
    for check in doc["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"  check {status} {check['name']} {check['detail']}")
    for name, m in metrics.items():
        print(f"  {name:40} {m['value']:16.4f} {m['unit']}")
    if args.trace:
        print(read_first(os.path.join(trace_dir, args.workload + ".layers.txt")))
        print(tracing_overhead(doc, results_dir, trace_dir), end="")
    print(json.dumps({"correct": correct, "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError, TypeError) as e:
        log(f"benchmark failed: {e}")
        sys.exit(1)
