#!/usr/bin/env python3
"""The repository benchmark: builds the driver, runs one workload, checks
its outputs and prints every metric, the last stdout line being one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload swarm_churn --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

Run it from the repository root. --trace 0 prints the end-to-end metrics
of BENCHMARK.json from an untraced run. --trace 1 runs the workload
untraced and then traced, and prints the per-layer metrics plus the
tracing overhead; the spans go to .bench_build/perfbench/spans-*.json.
Workloads, metrics and seeds are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_figures", "swarm_steady", "swarm_churn")
RUN_TIMEOUT_S = 170  # for all driver runs of one invocation, after the build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(targets):
    """Configures once and builds `targets`; returns False on any failure."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("perfbench: no library sources (src/CMakeLists.txt) next to perfbench/")
        return False
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_record():
    """CPU model, nproc, kernel, compiler and build type of this result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {"cpu": cpu, "nproc": os.cpu_count(), "kernel": platform.release(),
            "compiler": version, "build_type": cmake_cache("CMAKE_BUILD_TYPE")}


def run_driver(binary, args, deadline, extra=()):
    cmd = [os.path.join(build_dir(), binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--goldens", "results", *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench: {binary} timed out")
        return None
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {binary} exited {proc.returncode} without a result")
        return None


def cpu_per_unit(doc):
    info = doc["info"]
    return info["work_cpu_s"] / info["work_units"] if info.get("work_units") else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 2
        return subprocess.run([os.path.join(build_dir(), "perfbench_selftest")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    spec = load_spec()
    if not build(["perfbench_run", "perfbench_traced"]):
        return 2
    host = host_record()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = run_driver("perfbench_run", args, deadline)
    if base is None:
        return 1
    docs = [base]
    if args.trace:
        spans = os.path.join(build_dir(), f"spans-{args.workload}-{args.seed}.json")
        traced = run_driver("perfbench_traced", args, deadline, ("--trace-out", spans))
        if traced is None:
            return 1
        docs.append(traced)
        layers = dict(traced["layers"])
        base_cost = cpu_per_unit(base)
        layers["trace_overhead_frac"] = (
            cpu_per_unit(traced) / base_cost - 1.0 if base_cost > 0 else 0.0)
        layers["unattributed_cpu_frac"] = max(0.0, 1.0 - layers.pop("attributed_cpu_frac", 0.0))
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = base["e2e"]

    correct = all(d["correct"] for d in docs)
    problems = [p for d in docs for p in d["problems"]]
    print("host: " + json.dumps(host))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for key, value in sorted(base["info"].items()):
        print(f"  info  {key:32s} {value:.6g}")
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:38s} {value:.6g} {m['unit']}")
    for p in problems:
        print("  FAILED CHECK: " + p)
    result = {"correct": correct, "attempted": base["attempted"],
              "failed": base["failed"], "metrics": metrics}
    os.makedirs(build_dir(), exist_ok=True)
    with open(os.path.join(build_dir(), f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as f:
        json.dump({"host": host, "result": result, "runs": docs}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
