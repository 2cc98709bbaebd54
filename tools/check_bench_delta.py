#!/usr/bin/env python3
"""Guard bench throughput against silent regressions.

Compares a freshly produced BENCH_*.json recorder file (see
tools/check_metrics_schema.py for the shape) against a committed baseline
from the same smoke sweep and fails when any (figure, architecture, clients)
series point regresses by more than the threshold.  Values are throughputs
(MB/s): higher is better, so only downward moves fail.  Improvements and
new series points are reported but never fatal — refresh the baseline
(copy the new BENCH file over tools/bench_baselines/) when a change moves
the numbers on purpose.

Usage:
  check_bench_delta.py FRESH.json BASELINE.json [--threshold 0.20]
"""

import argparse
import json
import sys


def load_records(filename):
    try:
        with open(filename, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{filename}: unreadable or not JSON: {e}")
    if not isinstance(doc, dict) or "records" not in doc:
        sys.exit(f"{filename}: not a bench recorder file (no 'records')")
    out = {}
    for rec in doc["records"]:
        key = (rec.get("figure"), rec.get("architecture"), rec.get("clients"))
        out[key] = (float(rec.get("value", 0.0)), rec.get("unit", ""))
    return out


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("fresh_file", metavar="FRESH.json")
    ap.add_argument("base_file", metavar="BASELINE.json")
    ap.add_argument("--threshold", type=float, default=0.20)
    opts = ap.parse_args(argv[1:])
    fresh_file, base_file, threshold = (opts.fresh_file, opts.base_file,
                                        opts.threshold)
    fresh = load_records(fresh_file)
    base = load_records(base_file)

    failures = []
    print(f"{'figure':8} {'architecture':14} {'clients':>7} "
          f"{'baseline':>10} {'fresh':>10} {'delta':>8}")
    for key in sorted(base, key=lambda k: (str(k[0]), str(k[1]), k[2] or 0)):
        figure, arch, clients = key
        base_val, unit = base[key]
        if key not in fresh:
            print(f"{figure:8} {arch:14} {clients:>7} {base_val:>10.2f} "
                  f"{'MISSING':>10}")
            failures.append(f"{figure}/{arch}/{clients}: missing from "
                            f"{fresh_file}")
            continue
        fresh_val, _ = fresh[key]
        delta = (fresh_val - base_val) / base_val if base_val > 0 else 0.0
        mark = ""
        if base_val > 0 and fresh_val < base_val * (1.0 - threshold):
            mark = "  << REGRESSION"
            failures.append(f"{figure}/{arch}/{clients}: {base_val:.2f} -> "
                            f"{fresh_val:.2f} {unit} ({delta:+.1%})")
        print(f"{figure:8} {arch:14} {clients:>7} {base_val:>10.2f} "
              f"{fresh_val:>10.2f} {delta:>+7.1%}{mark}")
    for key in sorted(set(fresh) - set(base),
                      key=lambda k: (str(k[0]), str(k[1]), k[2] or 0)):
        print(f"{key[0]:8} {key[1]:14} {key[2]:>7} {'(new)':>10} "
              f"{fresh[key][0]:>10.2f}")

    if failures:
        print(f"\n{len(failures)} series point(s) regressed more than "
              f"{threshold:.0%} vs {base_file}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: no series point regressed more than {threshold:.0%}.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
