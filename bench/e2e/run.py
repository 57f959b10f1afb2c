#!/usr/bin/env python3
"""Builds bench_e2e from source, then runs it with this script's arguments.

Run from anywhere inside a checkout of the repository:

    python3 bench/e2e/run.py --workload tiny-open --seed 1 --seconds 20 --trace 0

Each call configures and builds bench_e2e and d3_node (Release) into
.bench_build/e2e at the repository root; after the first, both are quick.
Build output goes to stderr, so the last line on stdout is bench_e2e's JSON
result. BENCH_e2e.json and trace_<workload>.json are written next to the
binary unless --out-dir says otherwise.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(here, "..", "..", ".bench_build", "e2e")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        subprocess.run(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build, "-j", jobs, "--target", "bench_e2e"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("run.py: build failed: %s" % error)

    binary = os.path.join(build, "bench_e2e")
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", build]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
