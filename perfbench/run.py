#!/usr/bin/env python3
"""Build and run the ppscan benchmark.

One run (run from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/ in release mode and runs it; the last line of standard
output is the run's JSON result and the exit code is the benchmark's.

Steadiness check:

    python3 perfbench/run.py --steadiness [--workloads a,b] [--seeds 1,2,...]

runs each workload once per seed (default 1..10) for BENCHMARK.json's
run_seconds, each run in its own process, and reports every end-to-end
metric's median and quartile spread against its bound in BENCHMARK.json. It
exits 1 when a spread exceeds its bound, or when a run fails.

The default seed is 1. Seed 68 is held out: no setting was tuned on it, so
re-check a claimed gain there. The steadiness mode's default seeds (1..10)
leave it out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def build():
    """Builds the benchmark; on failure exits with cargo's code."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode)


def binary():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def spread(values):
    """Median and (q3 - q1) / median, quartiles as the statistics module gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def steadiness(args):
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(range(1, 11))
    seconds = str(bench["run_seconds"])
    ok = True
    for w in workloads:
        values = {}
        for seed in seeds:
            cmd = [binary(), "--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: run failed (exit {done.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        if len(next(iter(values.values()), [])) < 2:
            print(f"{w}: too few successful runs for quartiles")
            ok = False
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, q1, q3, s = spread(values[name])
            verdict = "ok" if s <= bound / 3 else ("WIDE" if s <= bound else "FAIL")
            if s > bound:
                ok = False
            print(f"  {w:22} {name:12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:.4f} bound {bound} {verdict}")
    return 0 if ok else 1


def main():
    if "--steadiness" not in sys.argv[1:]:
        build()
        return subprocess.run([binary()] + sys.argv[1:]).returncode
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--steadiness", action="store_true", required=True)
    p.add_argument("--workloads")
    p.add_argument("--seeds")
    args = p.parse_args()
    build()
    return steadiness(args)


if __name__ == "__main__":
    sys.exit(main())
