#!/usr/bin/env python3
"""Build the lfperf benchmark from source and run one workload.

Run from the repository root:

    python3 lfperf/run.py --workload query-churn --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, the binary and any span files live under
.bench_build/ in the repository root, so the benchmark reads and writes
nothing outside the checkout. The last line of standard output is the
result as one JSON object. With --workload all, every workload runs in its
own process in turn. Exits non-zero, printing no result, when the build
fails (for example when lfperf/ is copied without the rest of the
repository).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lfperf")
WORKLOADS = ["dumbbell-cc", "actor-mix", "fleet-rollout", "query-churn"]
BUILD_TIMEOUT_S = 700  # a first build in a fresh checkout also compiles the standard library
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"),
                     ("TMPDIR", "tmp")]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOFLAGS"] = "-mod=mod"
    env["GOPROXY"] = "off"
    env["GOTOOLCHAIN"] = "local"
    env["GOENV"] = "off"
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    tmp = BINARY + ".tmp"
    try:
        proc = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=go_env(),
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("lfperf: build did not finish within %d s" % BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("lfperf: build failed")
    os.replace(tmp, BINARY)


def run_one(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.join(BUILD, "spans-%s-seed%d.jsonl" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("lfperf: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", help="|".join(WORKLOADS + ["all"]))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error("unknown workload %r" % args.workload)
    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        code = run_one(name, args)
        if code != 0:
            sys.exit(code)


if __name__ == "__main__":
    main()
