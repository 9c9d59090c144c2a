#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and bin/pbqp_serve.exe with dune (build
output goes to stderr), then runs the benchmark with the same arguments.
Its standard output is the benchmark's: metric lines, then one JSON result
object as the last line.  The exit code is the benchmark's (0 only when
every output was checked correct); any failure to build or run exits
non-zero without a result line.  See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "pbqp_serve.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def kill_group(proc):
    """Stop the benchmark and everything it started (the daemon runs in
    its process group), then wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def main():
    for path in ("dune-project", "lib", "bin", "bench_cache"):
        if not os.path.exists(path):
            return fail("%s not found: run from the root of a checkout" % path)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe",
             "./bin/pbqp_serve.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if build.returncode != 0:
        return fail("build failed (dune exit %d)" % build.returncode)
    proc = subprocess.Popen(
        [EXE] + sys.argv[1:] + ["--serve-exe", SERVE_EXE],
        start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        kill_group(proc)
        raise
    kill_group(proc)
    return code


if __name__ == "__main__":
    sys.exit(main())
