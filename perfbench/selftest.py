#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny input size through perfbench/run.py:
  * once timed (--trace 0) and twice traced (--trace 1) with the same seed;
  * checks that every metric BENCHMARK.json declares prints with its unit and
    that every pass matched its reference;
  * checks that the deterministic per-layer counters repeat exactly across
    the two same-seed traced runs;
  * checks the per-layer predictions of perfbench/README.md: each counter is
    non-zero on the workloads that exercise its layer and zero elsewhere.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# Counters that depend only on the seed, the input size and N (the machine's
# hardware concurrency), never on timing.
DETERMINISTIC = [
    "chunk_source.chunks",
    "ingest.query_lines",
    "ingest.noise_lines",
    "sparql.parse_allocs_per_query",
    "dedup.unique_frac",
    "streaks.pairs",
    "streaks.dp_calls",
    "streak_stage.warmup_pairs",
    "snapshot.bytes_per_query",
]

# Counter -> the workloads whose traced run exercises its layer.
EXERCISED = {
    "chunk_source.chunks": {"log_all13"},
    "ingest.query_lines": {"log_all13"},
    "ingest.noise_lines": {"log_all13"},
    "sparql.parse_ns_per_query": {"log_all13"},
    "dedup.unique_frac": {"log_all13"},
    "analysis.ns_per_query": {"log_all13"},
    "pipeline.shard_skew": {"log_all13"},
    "streaks.pairs": {"streaks_dbp16"},
    "streaks.dp_calls": {"streaks_dbp16"},
    "streak_stage.chunks": {"streaks_dbp16"},
    "journal.segments": {"log_all13"},
    "snapshot.bytes_per_query": {"log_all13"},
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("FAIL %s --trace %d: exit code %d" %
                 (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_units(workload, trace, result, declared):
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        sys.exit("FAIL %s --trace %d: metrics/units differ from "
                 "BENCHMARK.json" % (workload, trace))
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s --trace %d: %d of %d operations failed" %
                 (workload, trace, result["failed"], result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        check_units(workload, 0, run(workload, 0), end_to_end)
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_units(workload, 1, result, per_layer)
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                sys.exit("FAIL %s: %s differs across same-seed runs: %r vs %r"
                         % (workload, name, a, b))
        for name, workloads in EXERCISED.items():
            value = first["metrics"][name]["value"]
            if (value != 0) != (workload in workloads):
                sys.exit("FAIL %s: %s = %r, expected %s" % (
                    workload, name, value,
                    "non-zero" if workload in workloads else "zero"))
        print("ok %s" % workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
