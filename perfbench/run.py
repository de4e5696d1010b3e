#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload lifecycle|serve|migrate \
        --seed N --seconds S --trace 0|1 [--ops N]

Run from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/fcbench.exe"
# A run measures for --seconds plus five set-ups; stay well inside the
# three minutes a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main():
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode,
              file=sys.stderr)
        return 3
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "fcbench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
