#!/usr/bin/env python3
"""End-to-end benchmark of the PRT workspace.

Builds the benchmark binary (perfbench/, a Cargo workspace of its own) and
the paper-table binaries from source, runs one workload in its own process
and prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. Earlier lines carry the
provenance (tree, host, toolchain, seed) and the workload's own report.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1> [--smoke] [--wrong-golden]

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. --workload all runs every workload,
each in its own process, and prints a combined report. Set-up and build
output goes to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_tables", "large_array", "service_mix", "diagnosis"]
TABLE_BINARIES = ["table_coverage_bom", "table_coverage_wom"]
# One workload run, build excluded, must end well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, configured))


def build(target):
    for manifest in (os.path.join(ROOT, "Cargo.toml"), os.path.join(HERE, "Cargo.toml")):
        if not os.path.isfile(manifest):
            fail(f"{os.path.relpath(manifest, ROOT)} is missing: run from a checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    tables = ["--bin", TABLE_BINARIES[0], "--bin", TABLE_BINARIES[1]]
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "prt-bench", *tables],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def command_output(*cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed):
    revision = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        revision = command_output("git", "rev-parse", "HEAD")
        status = command_output("git", "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else status != ""
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_revision": revision,
        "dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": command_output("rustc", "--version"),
        "seed": seed,
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, args, target):
    """Runs one workload in its own process; returns its result object and
    the lines it printed before it."""
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "prt-perfbench"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", release,
        "--scratch", os.path.join(target, "perfbench"),
    ]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--wrong-golden"] if args.wrong_golden else []
    worker = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, worker.kill)
    watchdog.start()
    try:
        lines = worker.stdout.read().splitlines()
        worker.stdout.close()
        # wait4 reports the peak resident set of the worker and of every
        # child it waited for (the paper-table binaries).
        _, status, usage = os.wait4(worker.pid, 0)
        worker.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    if worker.returncode != 0 or not lines:
        fail(f"workload {name} exited with {worker.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"workload {name} printed no result")
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"workload {name} metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    return result, lines[:-1]


def contract_line(result):
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one short pass per workload, for the self-test")
    parser.add_argument("--wrong-golden", action="store_true", help="perturb one golden value; the checks must fail")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    target = target_dir()
    build(target)
    print(json.dumps({"provenance": provenance(args.seed)}), flush=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, report = run_workload(name, args, target)
        for line in report:
            print(line)
        if result.get("failures"):
            print(json.dumps({"workload": name, "failures": result["failures"]}))
        if args.workload != "all":
            print(contract_line(result), flush=True)
            return
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:<34} {v['value']:>16.6g} {v['unit']}")
            combined["metrics"][f"{name}/{metric}"] = v
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(contract_line(combined), flush=True)


if __name__ == "__main__":
    main()
