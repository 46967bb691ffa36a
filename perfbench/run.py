#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload single-fleet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds the Go program in this
directory (its own module, which uses the repository through a replace
directive) into .bench_build/, keeping the Go build cache there too, and
runs one workload. The program's last line of output is the result
object; with --workload all every workload runs in turn and a combined
object, metrics keyed "<workload>/<metric>", is printed last.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ["single-fleet", "hot-rotate"]
# A single run must end within 180 s; the program itself stays far
# below this, so hitting it means something hung.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOTELEMETRY="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    return env


def build():
    env = go_env()
    for d in ("GOCACHE", "GOPATH", "GOTMPDIR"):
        os.makedirs(env[d], exist_ok=True)
    subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                   check=True, stdout=sys.stderr)


def run_one(workload, seed, seconds, trace):
    """Runs one workload, echoing its output; returns the result object."""
    scratch = os.path.join(BUILD, "run-%d-%s" % (os.getpid(), workload))
    cmd = [BIN, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace), "-dir", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s ran past %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: %s printed no result" % workload)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit("perfbench: build failed: %s" % e)

    if args.workload != "all":
        run_one(args.workload, args.seed, args.seconds, args.trace)
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        res = run_one(w, args.seed, args.seconds, args.trace)
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"]["%s/%s" % (w, name)] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
