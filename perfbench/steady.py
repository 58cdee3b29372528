#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and summarise each metric.

    python3 perfbench/steady.py [--workloads study,ingest,serve] \
        [--seeds 1-10] [--trace]

Each (workload, seed) is one fresh run of perfbench/run.py with the run
length from BENCHMARK.json. For every end-to-end metric the report prints
the median, the first and third quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the metric's bound; a spread
under a third of the bound is marked steady. With --trace each seed is also
run traced, and the report adds the per-layer medians and the tracing
overhead: the traced end-to-end timing against the untraced one. Raw results
go to .bench_build/steady-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Untraced metric each traced timing mirrors, for the overhead column.
TRACED = {
    "trace.op_p50_ms": "op_p50_ms",
}


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return statistics.median(values), q1, q3, spread


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="study,ingest,serve")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(out_dir, exist_ok=True)

    for workload in args.workloads.split(","):
        runs = [run(workload, s, bench["run_seconds"], 0) for s in seeds(args.seeds)]
        traced = [run(workload, s, bench["run_seconds"], 1) for s in seeds(args.seeds)] if args.trace else []
        with open(os.path.join(out_dir, f"steady-{workload}.json"), "w") as f:
            json.dump({"untraced": runs, "traced": traced}, f, indent=1)
        print(f"== {workload}: {len(runs)} runs")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(runs[0]):
            med, q1, q3, spread = summary([r[name] for r in runs])
            bound = bounds.get(name)
            mark = "" if bound is None else ("steady" if spread < bound / 3 else "NOISY")
            print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound if bound is not None else '':>6} {mark}")
        if traced:
            print(f"-- {workload}: per-layer medians ({len(traced)} traced runs)")
            for name in sorted(traced[0]):
                med = statistics.median(r[name] for r in traced)
                line = f"{name:34} {med:12.5g}"
                base = TRACED.get(name)
                if base in runs[0] and med:
                    plain = statistics.median(r[base] for r in runs)
                    line += f"   tracing overhead {100 * (med / plain - 1):+.1f}% vs {base}"
                print(line)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
