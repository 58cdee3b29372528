#!/usr/bin/env python3
"""Build perfbench from the checkout's source and run one workload.

    python3 perfbench/run.py --workload study|ingest|serve --seed N \
        --seconds S --trace 0|1

The Go toolchain's caches and the binary live under .bench_build/ at the
checkout root, so nothing is written outside the checkout. The last line of
standard output is the benchmark's JSON result; a failed build or run exits
non-zero without printing one.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    """Compile perfbench (and the program it drives) into .bench_build."""
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    tmp = binary + ".tmp"
    done = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE,
                          env=go_env(), stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    os.replace(tmp, binary)
    return binary


def main():
    binary = build()
    done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
