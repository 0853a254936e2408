#!/usr/bin/env python3
"""Build and run streamdb's end-to-end benchmark.

    python3 perfbench/run.py --workload filter --seed 1 --seconds 20 --trace 0

Builds the Go program in this directory against the streamdb module in
the parent directory, then runs it with the given arguments. Every build
product, including the Go build cache, stays under .bench_build at the
repository root. The last line of output is the run's JSON result. A
build failure exits 1 without printing a result.

`--workload all` runs every workload in turn and prints one table line
per metric, then a combined JSON result.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["filter", "pane_agg", "rtt_join", "wire_live"]


def build():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(BUILD, exist_ok=True)
    try:
        p = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                           capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return False
    if p.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + p.stderr)
        return False
    return True


def run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        p = subprocess.run([BINARY, "--workload", w] + args, capture_output=True, text=True)
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(f"perfbench: workload {w} exited {p.returncode}\n")
            combined["correct"] = False
            code = 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in sorted(res["metrics"].items()):
            print(f"{w:10s} {name:28s} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return code


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args) and args[i + 1] == "all":
            return run_all(args[:i] + args[i + 2:])
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
