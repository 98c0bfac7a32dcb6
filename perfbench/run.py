#!/usr/bin/env python3
"""Build and run branchprof's benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (the Go module in this directory, which links the
repository's packages from the parent directory) into .bench_build/,
then runs it with the given arguments. Every file the build and the
run touch stays inside the repository: the Go build and module caches
and the temporary directory live under .bench_build/ too. The
benchmark binary prints the result as the last line of standard
output; this script passes its exit code through.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def go_tool():
    """The go command on PATH, else the one under $GOROOT."""
    found = shutil.which("go")
    if found:
        return found
    return os.path.join(os.environ.get("GOROOT", ""), "bin", "go")


def main():
    env = go_env()
    build = subprocess.run(
        [go_tool(), "build", "-o", BINARY, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
    # A terminated run stops its benchmark process too, and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
