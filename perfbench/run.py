#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source in the release profile (into
.bench_build/, so a dev-profile _build/ is left alone), runs it from the
repository root and passes its standard output through.  The last line is
the JSON result.  The exit code is the benchmark's: 0 only when every
output check passed.

BENCHMARK.json is the single source of the workload settings the runner
forwards: a serve workload's offered rate is read from its `why` line,
and the metric names and units the benchmark prints are checked against
the file.  `--seed default` and `--seed held-out` stand for the two
seeds named in the command of BENCHMARK.json.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="default")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--default-seed", type=int, required=True)
    ap.add_argument("--held-out-seed", type=int, required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    workload = next((w for w in bench["workloads"] if w["name"] == args.workload), None)
    if workload is None:
        fail("unknown workload %r" % args.workload)
    seed = {"default": args.default_seed, "held-out": args.held_out_seed}.get(args.seed)
    if seed is None:
        try:
            seed = int(args.seed)
        except ValueError:
            fail("--seed takes a number, 'default' or 'held-out'")

    cmd = [EXE, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    rate = re.search(r"offered (\d+(?:\.\d+)?) frames/s", workload["why"])
    if rate:
        cmd += ["--rate", rate.group(1)]

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    # Its own process group, so that nothing it started outlives it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s" % TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("no result line (exit code %d)" % proc.returncode)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if {k: v["unit"] for k, v in got.items()} != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want)))
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
