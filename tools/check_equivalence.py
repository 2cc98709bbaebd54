#!/usr/bin/env python3
"""Byte-compare the simulator's outputs from two build trees.

The simulator is deterministic, so a change meant to keep behaviour (a
refactor, a simplification) is checked by running the same fixed recipes
from a build of the old tree and a build of the new one and comparing the
outputs byte for byte.  Only host-time fields -- wall-clock rates that
differ between any two runs -- are masked before the comparison.

Recipes:
  smoke/*   `--smoke` BENCH JSON of fig6, fig7, ablation_listio (both legs),
            ablation_redundancy and obs_overhead (its wall-clock
            "rate-ratio" values masked)
  quick/*   `--quick` stdout of ablation_cache/layout/aggregation, fig8a-d
            and sshbuild
  scale     `bench_scale --smoke` event counts and counter lines
            (client-s/s and wall seconds masked)
  flight/*  stdout, --flight-out and --metrics-out files of the four
            `simulate` fault recipes that tools/check_flight_schema.py runs

Usage:
  check_equivalence.py OLD_BUILD NEW_BUILD [--only SUBSTR]... [--jobs N]
                       [--keep DIR] [--list] [--allow-new-zeros]

OLD_BUILD and NEW_BUILD are CMake build trees (each holding bench/ and
examples/).  --only keeps the recipes whose name contains SUBSTR; --jobs
runs that many recipe executions at once (default 2); --keep leaves the
run directories under DIR instead of a temporary directory.
--allow-new-zeros is for a change that adds metrics: in JSON outputs, a
key present only in the new output whose value is all zeros (a new
counter, or a new component of zero counters) is dropped before the
comparison; every other byte must still match.  Exit status:
0 when every recipe matches, 1 on any difference or failed run, 2 on a
usage error.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile


def mask_rate_ratio(text):
    # bench_obs_overhead's wall-clock throughput ratio, one record per line.
    return re.sub(r'("figure":"rate-ratio".*?"value":)[^,]*',
                  r'\1"<host>"', text)


def scale_counters(text):
    # Keep the machine-independent lines; mask the wall-clock rate and time.
    lines = [line for line in text.splitlines()
             if line.startswith("point ") or "counters:" in line]
    out = "\n".join(lines) + "\n"
    out = re.sub(r"[\d.]+ client-s/s", "<host> client-s/s", out)
    return re.sub(r"\([\d.]+s wall", "(<host>s wall", out)


def keep(text):
    return text


def smoke(bench, normalize=keep):
    return (f"smoke/{bench}", [f"bench/bench_{bench}", "--smoke",
                               "--out-dir={out}"],
            [(f"BENCH_{bench}.json", normalize)])


def quick(bench):
    return (f"quick/{bench}", [f"bench/bench_{bench}", "--quick"],
            [("stdout", keep)])


def flight(name, args):
    return (f"flight/{name}",
            ["examples/simulate", *args, "--flight-out=flight.json",
             "--metrics-out=metrics.json"],
            [("stdout", keep), ("flight.json", keep),
             ("metrics.json", keep)])


RECIPES = [
    smoke("fig6_write"),
    smoke("fig7_read"),
    smoke("ablation_listio"),
    smoke("ablation_redundancy"),
    smoke("obs_overhead", mask_rate_ratio),
    quick("ablation_cache"),
    quick("ablation_layout"),
    quick("ablation_aggregation"),
    quick("fig8a_atlas"),
    quick("fig8b_btio"),
    quick("fig8c_oltp"),
    quick("fig8d_postmark"),
    quick("sshbuild"),
    ("scale", ["bench/bench_scale", "--smoke", "--out-dir={out}"],
     [("stdout", scale_counters)]),
    # The recipes of tools/check_flight_schema.py --run.
    flight("chaos", ["--arch=direct", "--workload=tenant-mix",
                     "--clients=4", "--bytes=8000000", "--txns=200",
                     "--chaos-seed=11"]),
    flight("kill", ["--arch=direct", "--workload=ior-write", "--clients=4",
                    "--storage-nodes=5", "--redundancy=mirror",
                    "--replicas=2", "--spares=1", "--fault-ds-kill=1",
                    "--fault-at-ms=500", "--rebuild-after-ms=800",
                    "--bytes=8000000", "--stripe=262144"]),
    flight("crash", ["--arch=direct", "--workload=ior-write", "--clients=4",
                     "--fault-ds-crash=1", "--fault-at-ms=500",
                     "--bytes=32000000"]),
    flight("flagged", ["--arch=direct", "--workload=ior-read", "--clients=4",
                       "--storage-nodes=6", "--redundancy=ec", "--ec-k=4",
                       "--ec-m=2", "--fault-ds-kill=1", "--fault-at-ms=600",
                       "--bytes=8000000"]),
]


def run(build, argv, out):
    """Runs one recipe from `build` in the fresh directory `out`; returns
    (exit status, stdout)."""
    os.makedirs(out)
    cmd = [os.path.join(build, argv[0])] + [a.format(out=out)
                                            for a in argv[1:]]
    env = dict(os.environ, DPNFS_BENCH_DIR=out)
    proc = subprocess.run(cmd, cwd=out, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.returncode, proc.stdout


def artifacts(outputs, out, stdout):
    """The normalized text of each of a recipe's outputs."""
    texts = {}
    for source, normalize in outputs:
        if source == "stdout":
            text = stdout
        else:
            try:
                with open(os.path.join(out, source), encoding="utf-8") as f:
                    text = f.read()
            except OSError:
                text = None
        texts[source] = None if text is None else normalize(text)
    return texts


def all_zero(value):
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return value == 0
    if isinstance(value, dict):
        return all(all_zero(v) for v in value.values())
    if isinstance(value, list):
        return all(all_zero(v) for v in value)
    return False


def drop_new_zeros(old, new):
    """`new` without the all-zero keys that `old` does not have."""
    if isinstance(old, dict) and isinstance(new, dict):
        return {k: drop_new_zeros(old[k], v) if k in old else v
                for k, v in new.items() if k in old or not all_zero(v)}
    if isinstance(old, list) and isinstance(new, list) and \
            len(old) == len(new):
        return [drop_new_zeros(o, n) for o, n in zip(old, new)]
    return new


def without_new_zeros(old_text, new_text):
    """The JSON texts re-serialized, new-only all-zero keys dropped from the
    new one; the inputs unchanged when either is not JSON."""
    try:
        old, new = json.loads(old_text), json.loads(new_text)
    except ValueError:
        return old_text, new_text
    return (json.dumps(old, indent=0),
            json.dumps(drop_new_zeros(old, new), indent=0))


def first_difference(a, b):
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if la != lb:
            return f"line {i}:\n    old: {la[:160]}\n    new: {lb[:160]}"
    return "one output is a prefix of the other"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("old_build", nargs="?")
    parser.add_argument("new_build", nargs="?")
    parser.add_argument("--only", action="append", default=[])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--keep")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--allow-new-zeros", action="store_true")
    args = parser.parse_args()

    recipes = [r for r in RECIPES
               if not args.only or any(s in r[0] for s in args.only)]
    if args.list:
        for name, argv, _ in recipes:
            print(f"{name}: {' '.join(argv)}")
        return 0
    if not args.old_build or not args.new_build:
        parser.error("OLD_BUILD and NEW_BUILD are required")
    if not recipes:
        parser.error("no recipe matches --only")

    root = args.keep or tempfile.mkdtemp(prefix="equivalence-")
    sides = {"old": os.path.abspath(args.old_build),
             "new": os.path.abspath(args.new_build)}
    with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
        futures = {}
        for name, argv, _ in recipes:
            for side, build in sides.items():
                out = os.path.join(root, side, name.replace("/", "_"))
                if os.path.exists(out):
                    shutil.rmtree(out)
                futures[(name, side)] = (pool.submit(run, build, argv, out),
                                         out)

        failed = 0
        for name, argv, outputs in recipes:
            results = {}
            for side in sides:
                future, out = futures[(name, side)]
                status, stdout = future.result()
                results[side] = (status, artifacts(outputs, out, stdout))
            (old_status, old), (new_status, new) = results["old"], results["new"]
            problems = []
            if old_status != new_status:
                problems.append(f"exit status {old_status} -> {new_status}")
            elif old_status != 0:
                problems.append(f"both runs exited {old_status}")
            for source, _ in outputs:
                a, b = old[source], new[source]
                if a is None or b is None:
                    problems.append(f"{source}: missing")
                    continue
                if args.allow_new_zeros and a != b and source.endswith(".json"):
                    a, b = without_new_zeros(a, b)
                if a != b:
                    problems.append(f"{source} differs at "
                                    f"{first_difference(a, b)}")
            if problems:
                failed += 1
                print(f"DIFF  {name}")
                for p in problems:
                    print(f"  {p}")
            else:
                sizes = ", ".join(f"{source} {len(old[source])} B"
                                  for source, _ in outputs)
                print(f"EQUAL {name} ({sizes})")
            sys.stdout.flush()

    if not args.keep:
        shutil.rmtree(root, ignore_errors=True)
    masked = "host-time fields" + (" and new all-zero keys"
                                   if args.allow_new_zeros else "")
    print(f"{len(recipes) - failed}/{len(recipes)} recipes byte-equal"
          + (f" ({masked} masked)" if failed == 0 else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
