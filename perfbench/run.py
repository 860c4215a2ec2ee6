#!/usr/bin/env python3
"""Build perfbench from source and run it once.

Run from the repository root:

    python3 perfbench/run.py --workload mainnet --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the disk backend's store all live under
.bench_build/ in the working directory, so nothing is written outside it.
Arguments are passed to the binary unchanged; its exit code is returned.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary, "--workdir", build] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
