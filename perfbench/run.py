#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-readheavy --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, the data directories and the traces all
live under .bench_build/ in the checkout, so nothing is read or written
outside it. Every argument is passed on to the benchmark; its exit code
is this script's exit code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_env(build_dir):
    env = dict(os.environ)
    home = os.path.join(build_dir, "home")
    for d in ("gocache", "gopath", "tmp", home):
        os.makedirs(os.path.join(build_dir, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "mod"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        TMPDIR=os.path.join(build_dir, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOTELEMETRY="off",
        GOENV="off",
    )
    return env


def main():
    build_dir = os.path.abspath(".bench_build")
    env = build_env(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if not any(a == "--build-dir" or a.startswith("--build-dir=") for a in args):
        args = ["--build-dir", build_dir] + args
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
