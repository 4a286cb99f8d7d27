#!/usr/bin/env python3
"""Build the host benchmark from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload contend --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files, the binary and the traced run's
spans and CPU profiles all go under the build directory
($CARGO_TARGET_DIR, default .bench_build), so nothing outside the
checkout is written. The arguments are passed on to the benchmark; its
last line of output is the result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isfile(
        os.path.join(bench, "go.mod")
    ):
        print("run.py: run from the root of a repository checkout", file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return built.returncode
    cmd = [binary, "--out", os.path.join(build, "out")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
