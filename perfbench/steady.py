#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seed 1]

Runs `perfbench/run.py --trace 0` on each workload with seeds seed..seed+9,
in two interleaved sets of the same code (the order of the sets alternates
from seed to seed), then once more on a held-out seed.  For every end-to-end
metric of BENCHMARK.json it reports, per set, the median and the spread (the
distance between the first and third quartile as a share of the median), the
amount by which the second set's median is worse than the first's, and
where the held-out seed lands.  A metric passes when both spreads are within
its bound and the second median is not worse than the first by more than the
bound; the exit code is 0 only if all pass.  The full table, with every
run's value, is also written to .bench_out/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_OFFSET = 1_000_003
SETS = 2
RUNS = 10


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: correctness check failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def worse_by(first, other, better):
    """Share by which `other` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    return (other - first) / first if better == "lower" else (first - other) / first


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    report, ok = {}, True
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(SETS)]
        for i in range(RUNS):
            order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
            for s in order:
                sets[s].append(run(workload, args.seed + i, seconds))
                print(f"{workload} seed {args.seed + i} set {s}: done", file=sys.stderr, flush=True)
        held = run(workload, args.seed + HELD_OUT_OFFSET, seconds)
        rows = {}
        print(f"\n{workload}: {SETS} sets x {RUNS} seeds")
        print(f"{'metric':22s} {'bound':>6s} {'median/set':>34s} {'spread/set':>22s} "
              f"{'worse':>8s} {'held-out':>9s}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds, spreads = zip(*(spread([r[name] for r in runs]) for runs in sets))
            worst = worse_by(meds[0], meds[1], m["better"])
            held_worse = worse_by(meds[0], held[name], m["better"])
            passed = worst <= bound and max(spreads) <= bound
            ok &= passed
            rows[name] = {"bound": bound, "values": [[r[name] for r in runs] for runs in sets],
                          "medians": meds, "spreads": spreads,
                          "worse": worst, "held_out": held[name], "held_out_worse": held_worse,
                          "pass": passed}
            print(f"{name:22s} {bound:6.3f} {' '.join(f'{x:.6g}' for x in meds):>34s} "
                  f"{' '.join(f'{x:.4f}' for x in spreads):>22s} {worst:8.4f} {held_worse:9.4f}  "
                  f"{'ok' if passed else 'FAIL'}{'' if max(spreads) <= bound / 3 else ' (spread > bound/3)'}")
        report[workload] = rows
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
