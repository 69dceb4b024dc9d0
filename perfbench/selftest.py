#!/usr/bin/env python3
"""Self-tests of the benchmark: run from the repository root.

    python3 perfbench/selftest.py

1. Every workload at smoke size, untraced and traced: the run is correct
   and emits exactly the metrics BENCHMARK.json names, with their units.
2. Every workload with one golden value perturbed: the output checks fail.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_tables", "large_array", "service_mix", "diagnosis"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert any(l.startswith('{"provenance"') for l in lines), "no provenance line"
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = run(workload, trace)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == want, f"metrics differ: {sorted(set(got.items()) ^ set(want.items()))}"
                assert result["correct"] and result["failed"] == 0, result
                assert result["attempted"] >= 1
                if trace == 0:
                    zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
                    assert not zero, f"end-to-end metrics read 0: {zero}"
                print(f"ok   {workload} --trace {trace}: {len(got)} metrics, {result['attempted']} attempted")
            except AssertionError as e:
                failures.append(f"{workload} --trace {trace}: {e}")
                print(f"FAIL {workload} --trace {trace}: {e}")
        try:
            result = run(workload, 0, "--wrong-golden")
            assert not result["correct"] and result["failed"] >= 1, result
            print(f"ok   {workload} --wrong-golden: {result['failed']} of {result['attempted']} failed")
        except AssertionError as e:
            failures.append(f"{workload} --wrong-golden: {e}")
            print(f"FAIL {workload} --wrong-golden: {e}")
    if failures:
        sys.exit(f"{len(failures)} self-test(s) failed")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
