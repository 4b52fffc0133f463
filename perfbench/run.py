#!/usr/bin/env python3
"""Build rhythmd and the perfbench program from this checkout, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload host-mix --seed 1 --seconds 20 --trace 0

Every build product, the Go build cache and the traced runs' span files
and profiles go under .bench_build/ at the repository root. The last
line of standard output is the JSON result; build output goes to
standard error. The exit code is non-zero when a build fails or an
output is wrong.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    for d in (BIN, env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "rhythmd"), "./cmd/rhythmd"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no Rhythm module at " + ROOT, file=sys.stderr)
        return 1
    env = go_env()
    if not build(env):
        return 1
    cmd = [
        os.path.join(BIN, "perfbench"),
        "-rhythmd", os.path.join(BIN, "rhythmd"),
        "-out", os.path.join(BUILD, "out"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so that signals sent to the benchmark reach
    # the perfbench program, which stops every server it started.
    os.chdir(ROOT)
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    sys.exit(main())
