#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from the library sources (perfbench/CMakeLists.txt,
Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, then runs one workload and passes its output through. The
last line of stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced run. `--workload all` runs every workload in turn and ends with one
JSON object whose metric names are prefixed with the workload name. Exits
non-zero if the build fails, a pass mismatches its reference, or the result
does not list exactly the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["log_all13", "streaks_dbp16"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "perfbench")


def declared_metrics(trace):
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, bdir, workload, args):
    """Runs one workload; returns (exit code, parsed result or None)."""
    workdir = os.path.join(bdir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--size", args.size]
    if args.trace:
        cmd += ["--spans-out", os.path.join(bdir, "spans-%s.tsv" % workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("%s: no JSON result line" % workload)
        return proc.returncode or 1, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("%s: malformed result keys %s" % (workload, sorted(result)))
        return 1, None
    declared = declared_metrics(args.trace)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared is not None and reported != declared:
        log("%s: metrics differ from BENCHMARK.json: %s" % (
            workload, sorted(set(reported.items()) ^ set(declared.items()))))
        return 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Input size; "tiny" is for the self-test (perfbench/selftest.py).
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        log("build failed")
        return 2

    if args.workload != "all":
        code, result = run_workload(binary, bdir, args.workload, args)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        print("== %s" % workload)
        code, result = run_workload(binary, bdir, workload, args)
        if result is None:
            return code or 1
        status = status or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
