#!/usr/bin/env python3
"""Builds bench_e2e from the checkout it sits in and runs one workload.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/bench_e2e
(default .bench_build/bench_e2e) in Release mode; build output goes to stderr,
so the last line of stdout stays the benchmark's JSON result. When the build
fails — for instance in a directory that holds the benchmark but not the
repository's sources — it exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Configures (once) and builds bench_e2e; returns the binary's path."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "bench_e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_e2e")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"bench_e2e: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
