#!/usr/bin/env python3
"""Service benchmark smoke: perfbench's cache-hit and cache-miss workloads.

Runs each for 3 s (seed 1, untraced) and fails unless every operation
succeeded and the miss p50 latency is at least 10x the hit p50.
Usage (from the repository root): python3 .github/perfbench_smoke.py
"""
import json
import subprocess
import sys

p50 = {}
for workload in ("serve_hits_att", "serve_misses_waxman150"):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "3", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    print(done.stdout, end="")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, (workload, result)
    assert result["failed"] == 0, (workload, result)
    p50[workload] = result["metrics"]["latency_p50_ms"]["value"]

hits = p50["serve_hits_att"]
misses = p50["serve_misses_waxman150"]
assert misses >= 10 * hits, f"miss p50 {misses} < 10x hit p50 {hits}"
print(f"p50 hits {hits} ms, misses {misses} ms ({misses / hits:.1f}x)")
