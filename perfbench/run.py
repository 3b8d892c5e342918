#!/usr/bin/env python3
"""Build and run the weblint-rs benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <corpus|hostile|serve|crawl> \
        --seed N --seconds S --trace <0|1> [--serve-rates R1,R2,..] \
        [--serve-limit-ms MS]

Builds the benchmark package and the release `weblint-serve` binary into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark with
the given arguments. The benchmark's last line of standard output is one
JSON object with the result. Build output goes to standard error. The
exit code is the benchmark's: non-zero on a failed build, a wrong output
or a timeout.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(target_dir, manifest, *extra):
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if result.returncode != 0:
        sys.stderr.write("perfbench: build failed: %s\n" % " ".join(command))
        sys.exit(result.returncode or 1)


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    for manifest in ("Cargo.toml", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(manifest):
            sys.stderr.write("perfbench: run from the repository root; %s is missing\n" % manifest)
            sys.exit(2)
    build(target_dir, "Cargo.toml", "-p", "weblint-cli", "--bin", "weblint-serve")
    build(target_dir, os.path.join("perfbench", "Cargo.toml"))
    command = [os.path.join(target_dir, "release", "perfbench"), *sys.argv[1:]]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: timed out after %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
