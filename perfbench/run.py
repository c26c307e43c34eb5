#!/usr/bin/env python3
"""Build and run the repository's benchmark (see README.md here).

    python3 perfbench/run.py --workload pressure-compile|spec-run|serve-mixed \
        --seed N --seconds S --trace 0|1

Builds perfbench.exe and lsra_tool.exe from the sources of the checkout
this directory sits in (dune, release profile, build directory
.bench_build), runs one workload and passes its result line through:
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Build output goes to standard
error. Exits non-zero, without a result line, when the sources are not
there or the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["pressure-compile", "spec-run", "serve-mixed"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build():
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD,
        "--profile", "release",
        "./perfbench/perfbench.exe", "./bin/lsra_tool.exe",
    ]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def stop_group(pgid):
    """Kill whatever the run left in its process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))
            and os.path.isdir(os.path.join(ROOT, "bin"))):
        return fail("the repository's sources (dune-project, lib/, bin/) are "
                    "not next to this directory; nothing to build")
    if not build():
        return fail("build failed")
    exe = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
    tool = os.path.join(BUILD, "default", "bin", "lsra_tool.exe")
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tool", os.path.relpath(tool, ROOT),
        "--out", os.path.relpath(os.path.join(BUILD, "perfbench"), ROOT),
    ]
    # Its own process group, so the server it starts can be reaped even
    # if the run dies. The run and the server it starts share one CPU:
    # the host's speed changes then hit the work and the calibration
    # kernel that rescales it alike (README.md, "Steadiness").
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        stop_group(proc.pid)
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    stop_group(proc.pid)
    return code


if __name__ == "__main__":
    sys.exit(main())
