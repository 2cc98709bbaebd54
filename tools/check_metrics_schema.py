#!/usr/bin/env python3
"""Validate dpnfs observability JSON against the documented schema.

Two document shapes are accepted (see docs/observability.md):

  1. A RunResult::metrics_json export:
       {"architecture": str, "sim_time_ns": int,
        "nodes": {node: {component: {"counters": {...}, "gauges": {...},
                                     "histograms": {...}}}},
        "trace": {...aggregate...}}

  2. A BENCH_*.json recorder file:
       {"bench": str, "records": [{"figure": str, "architecture": str,
                                   "clients": int, "value": num,
                                   "unit": str, "metrics": <shape 1>}]}

Usage:
  check_metrics_schema.py FILE.json [FILE2.json ...]
  check_metrics_schema.py --run /path/to/bench_micro
      (spawns `bench_micro --metrics-smoke=<tmp>` and validates the output)
"""

import json
import os
import subprocess
import sys
import tempfile

# Counters every client.recovery component must export (docs/failures.md).
RECOVERY_COUNTERS = ("retries", "fallbacks", "breaker_trips")

# Counters every client.replay component (unstable-write replay after a
# server restart) must export (docs/failures.md "Restart semantics").  NFS
# clients additionally export session_recoveries; the native PVFS client
# does not (it has no sessions), so that one stays optional.
REPLAY_COUNTERS = ("verifier_mismatches", "replayed_extents",
                   "replayed_bytes")

# Counters every client.redundancy component must export (docs/failures.md
# "Degraded mode"): replica rerouting, degraded reads/writes, and erasure
# reconstruction under permanent data-server loss.
REDUNDANCY_COUNTERS = ("replica_reroutes", "degraded_reads",
                       "degraded_read_bytes", "ec_reconstructions",
                       "degraded_writes", "degraded_commits")

# Counters the MDS background-rebuild service exports (docs/failures.md
# "Background rebuild"); the component only exists when the rebuild service
# is enabled, but when present the set is fixed.
REBUILD_COUNTERS = ("dses_declared_dead", "rebuilds_started",
                    "rebuilds_completed", "objects_rebuilt",
                    "bytes_rebuilt", "objects_failed")

# Counters every client.sched component (per-DS write-back scheduler) must
# export (docs/observability.md).  Its gauges are dynamic — one
# queue_depth/queue_depth_peak/window_inflight triple per data server the
# client has dispatched to, suffixed "_mds" or "_ds<N>".
SCHED_COUNTERS = ("dispatched_writes", "dispatched_bytes",
                  "coalesced_extents", "coalesced_bytes",
                  "vectored_writes", "vectored_regions", "vectored_bytes")
SCHED_GAUGE_PREFIXES = ("queue_depth_", "queue_depth_peak_",
                        "window_inflight_")

TRACE_KEYS = {
    "traces_started": int,
    "rpc_hops_total": int,
    "mean_hops_per_trace": (int, float),
    "max_hops_per_trace": int,
    "spans_recorded": int,
    "spans_dropped": int,
    "hop_traces_seen": int,
    "hop_traces_evicted": int,
    # bool, not int: json.load never produces Python bools from 0/1, and
    # isinstance(True, int) is True — the explicit bool type catches an
    # exporter regressing to 0/1.
    "hop_histogram_complete": bool,
    "hops_histogram": dict,
    "sample_rate": (int, float),
    "traces_sampled": int,
    "traces_promoted": int,
    "spans_sampled_out": int,
}

# Streaming percentile digest export (util::PercentileDigest::to_json):
# fixed-memory log-bucketed summary, no per-sample data.
DIGEST_KEYS = {
    "count": int,
    "sum": (int, float),
    "mean": (int, float),
    "min": (int, float),
    "max": (int, float),
    "p50": (int, float),
    "p90": (int, float),
    "p99": (int, float),
    "p999": (int, float),
}

# Per-op-class entry in the top-level "slo" section.
SLO_OP_KEYS = {
    "requests": int,
    "errors": int,
    "over_slo": int,
}

# One tenant's resource bill (the "tenants" section, docs/observability.md).
TENANT_STAT_KEYS = {
    "rpcs": int,
    "wire_bytes_in": int,
    "wire_bytes_out": int,
    "queue_ns": int,
    "service_ns": int,
    "disk_ns": int,
    "read_bytes": int,
    "write_bytes": int,
    "errors": int,
    "over_slo": int,
}

HEALTH_STATES = ("ok", "degraded", "critical")

errors = []


def err(path, msg):
    errors.append(f"{path}: {msg}")


def check_type(path, value, types, what):
    if not isinstance(value, types):
        err(path, f"{what} should be {types}, got {type(value).__name__}")
        return False
    return True


def check_histogram(path, h):
    if not check_type(path, h, dict, "histogram"):
        return
    for key, types in (("count", int), ("sum", (int, float)),
                       ("mean", (int, float)), ("min", (int, float)),
                       ("max", (int, float)), ("boundaries", list),
                       ("counts", list)):
        if key not in h:
            err(path, f"missing histogram key '{key}'")
        else:
            check_type(f"{path}.{key}", h[key], types, key)
    bounds = h.get("boundaries")
    counts = h.get("counts")
    if isinstance(bounds, list) and isinstance(counts, list):
        # One implicit overflow bucket beyond the last boundary.
        if len(counts) != len(bounds) + 1:
            err(path, f"len(counts)={len(counts)} != len(boundaries)+1="
                      f"{len(bounds) + 1}")
        if isinstance(h.get("count"), int) and sum(counts) != h["count"]:
            err(path, f"sum(counts)={sum(counts)} != count={h['count']}")


def check_recovery_component(path, comp):
    """The failure-recovery component has a fixed counter contract."""
    counters = comp.get("counters", {})
    if not isinstance(counters, dict):
        return  # already reported by check_component
    for name in RECOVERY_COUNTERS:
        if name not in counters:
            err(path, f"client.recovery missing counter '{name}'")
        elif not isinstance(counters[name], int):
            err(f"{path}.counters.{name}",
                f"recovery counter should be int, got "
                f"{type(counters[name]).__name__}")


def check_replay_component(path, comp):
    """Crash-recovery replay accounting has a fixed counter contract."""
    counters = comp.get("counters", {})
    if not isinstance(counters, dict):
        return  # already reported by check_component
    for name in REPLAY_COUNTERS:
        if name not in counters:
            err(path, f"client.replay missing counter '{name}'")
        elif not isinstance(counters[name], int):
            err(f"{path}.counters.{name}",
                f"replay counter should be int, got "
                f"{type(counters[name]).__name__}")


def check_counter_set(path, comp, component_name, names):
    """Fixed counter contract shared by the redundancy/rebuild components."""
    counters = comp.get("counters", {})
    if not isinstance(counters, dict):
        return  # already reported by check_component
    for name in names:
        if name not in counters:
            err(path, f"{component_name} missing counter '{name}'")
        elif not isinstance(counters[name], int):
            err(f"{path}.counters.{name}",
                f"{component_name} counter should be int, got "
                f"{type(counters[name]).__name__}")


def check_sched_component(path, comp):
    """The per-DS write-back scheduler: fixed counters, dynamic per-DS
    gauges (one depth/peak/inflight triple per data server dispatched to)."""
    counters = comp.get("counters", {})
    if isinstance(counters, dict):
        for name in SCHED_COUNTERS:
            if name not in counters:
                err(path, f"client.sched missing counter '{name}'")
            elif not isinstance(counters[name], int):
                err(f"{path}.counters.{name}",
                    f"sched counter should be int, got "
                    f"{type(counters[name]).__name__}")
    gauges = comp.get("gauges", {})
    if isinstance(gauges, dict):
        for name in gauges:
            if not any(name.startswith(p) for p in SCHED_GAUGE_PREFIXES):
                err(f"{path}.gauges.{name}",
                    "client.sched gauge should match queue_depth_*/"
                    "queue_depth_peak_*/window_inflight_*")


def check_digest(path, d):
    if not check_type(path, d, dict, "digest"):
        return
    for key, types in DIGEST_KEYS.items():
        if key not in d:
            err(path, f"missing digest key '{key}'")
        elif isinstance(d[key], bool) or not isinstance(d[key], types):
            err(f"{path}.{key}", f"digest {key} should be {types}, got "
                                 f"{type(d[key]).__name__}")


def check_component(path, comp):
    if not check_type(path, comp, dict, "component"):
        return
    for section in ("counters", "gauges", "histograms", "digests"):
        if section not in comp:
            err(path, f"missing section '{section}'")
            continue
        if not check_type(f"{path}.{section}", comp[section], dict, section):
            continue
        for name, value in comp[section].items():
            p = f"{path}.{section}.{name}"
            if section == "counters":
                check_type(p, value, int, "counter")
            elif section == "gauges":
                check_type(p, value, (int, float), "gauge")
            elif section == "digests":
                check_digest(p, value)
            else:
                check_histogram(p, value)


def check_metrics_doc(path, doc):
    if not check_type(path, doc, dict, "metrics document"):
        return
    for key in ("architecture", "sim_time_ns", "nodes", "trace"):
        if key not in doc:
            err(path, f"missing top-level key '{key}'")
    check_type(f"{path}.architecture", doc.get("architecture", ""), str,
               "architecture")
    check_type(f"{path}.sim_time_ns", doc.get("sim_time_ns", 0), int,
               "sim_time_ns")

    nodes = doc.get("nodes", {})
    if check_type(f"{path}.nodes", nodes, dict, "nodes") and not nodes:
        err(f"{path}.nodes", "no nodes recorded")
    for node, components in nodes.items():
        if not check_type(f"{path}.nodes.{node}", components, dict, "node"):
            continue
        # Every NFS client registers its write-back scheduler and its
        # unstable-write replay accounting alongside its cache component at
        # construction (the native PVFS client registers client.replay on
        # its own).
        if "client.cache" in components and "client.sched" not in components:
            err(f"{path}.nodes.{node}", "client node missing client.sched")
        if "client.cache" in components and "client.replay" not in components:
            err(f"{path}.nodes.{node}", "client node missing client.replay")
        if ("client.cache" in components
                and "client.redundancy" not in components):
            err(f"{path}.nodes.{node}", "client node missing client.redundancy")
        for comp, body in components.items():
            check_component(f"{path}.nodes.{node}.{comp}", body)
            if comp == "client.recovery" and isinstance(body, dict):
                check_recovery_component(f"{path}.nodes.{node}.{comp}", body)
            if comp == "client.sched" and isinstance(body, dict):
                check_sched_component(f"{path}.nodes.{node}.{comp}", body)
            if comp == "client.replay" and isinstance(body, dict):
                check_replay_component(f"{path}.nodes.{node}.{comp}", body)
            if comp == "client.redundancy" and isinstance(body, dict):
                check_counter_set(f"{path}.nodes.{node}.{comp}", body,
                                  "client.redundancy", REDUNDANCY_COUNTERS)
            if comp == "mds.rebuild" and isinstance(body, dict):
                check_counter_set(f"{path}.nodes.{node}.{comp}", body,
                                  "mds.rebuild", REBUILD_COUNTERS)

    # Every export must carry per-node resource gauges for at least one
    # storage node — this is what decomposes "where the bytes went".
    storage = [n for n, comps in nodes.items()
               if isinstance(comps, dict) and "node" in comps
               and "disk_write_bytes" in comps["node"].get("gauges", {})]
    if not storage:
        err(f"{path}.nodes", "no storage node carries node.disk_write_bytes")

    trace = doc.get("trace", {})
    if check_type(f"{path}.trace", trace, dict, "trace"):
        for key, types in TRACE_KEYS.items():
            if key not in trace:
                err(f"{path}.trace", f"missing key '{key}'")
            elif types is bool:
                if not isinstance(trace[key], bool):
                    err(f"{path}.trace.{key}",
                        f"{key} should be bool, got "
                        f"{type(trace[key]).__name__}")
            else:
                check_type(f"{path}.trace.{key}", trace[key], types, key)

    # Sampling-era SLO report: exact per-op-class accounting (100% of
    # traffic, independent of the sample rate) plus streaming latency
    # digests and the sampling/promotion counters.
    if "slo" not in doc:
        err(path, "missing top-level key 'slo'")
    slo = doc.get("slo", {})
    if check_type(f"{path}.slo", slo, dict, "slo"):
        for key, types in (("slo_threshold_ns", int),
                           ("sample_rate", (int, float)),
                           ("traces_started", int),
                           ("traces_sampled", int),
                           ("traces_promoted", int),
                           ("spans_sampled_out", int),
                           ("per_op", dict)):
            if key not in slo:
                err(f"{path}.slo", f"missing key '{key}'")
            else:
                check_type(f"{path}.slo.{key}", slo[key], types, key)
        for op, body in slo.get("per_op", {}).items():
            p = f"{path}.slo.per_op.{op}"
            if not check_type(p, body, dict, "per-op entry"):
                continue
            for key, types in SLO_OP_KEYS.items():
                if key not in body:
                    err(p, f"missing key '{key}'")
                else:
                    check_type(f"{p}.{key}", body[key], types, key)
            if "latency_us" not in body:
                err(p, "missing key 'latency_us'")
            else:
                check_digest(f"{p}.latency_us", body["latency_us"])

    # Per-tenant attribution: top-K rows plus exact totals.  While nothing
    # has been evicted the rows must sum exactly to the totals — that's the
    # whole point of the unconditional total accumulator.
    if "tenants" not in doc:
        err(path, "missing top-level key 'tenants'")
    tenants = doc.get("tenants", {})
    if check_type(f"{path}.tenants", tenants, dict, "tenants"):
        for key, types in (("topk", int), ("tenants_seen", int),
                           ("tenants_evicted", int),
                           ("slo_threshold_ns", int),
                           ("per_tenant", dict), ("total", dict)):
            if key not in tenants:
                err(f"{path}.tenants", f"missing key '{key}'")
            else:
                check_type(f"{path}.tenants.{key}", tenants[key], types, key)

        def check_tenant_stats(p, stats):
            if not check_type(p, stats, dict, "tenant stats"):
                return
            for key, types in TENANT_STAT_KEYS.items():
                if key not in stats:
                    err(p, f"missing key '{key}'")
                else:
                    check_type(f"{p}.{key}", stats[key], types, key)
            if "latency_us" not in stats:
                err(p, "missing key 'latency_us'")
            else:
                check_digest(f"{p}.latency_us", stats["latency_us"])

        per_tenant = tenants.get("per_tenant", {})
        if isinstance(per_tenant, dict):
            for name, row in per_tenant.items():
                p = f"{path}.tenants.per_tenant.{name}"
                if not check_type(p, row, dict, "tenant row"):
                    continue
                for key in ("weight", "weight_error"):
                    if key not in row:
                        err(p, f"missing key '{key}'")
                    else:
                        check_type(f"{p}.{key}", row[key], int, key)
                check_tenant_stats(f"{p}.stats", row.get("stats", {}))
            rows = len(per_tenant)
            cap = tenants.get("topk", 0)
            if isinstance(cap, int) and rows > cap:
                err(f"{path}.tenants.per_tenant",
                    f"{rows} rows exceed topk capacity {cap}")
        total = tenants.get("total", {})
        check_tenant_stats(f"{path}.tenants.total", total)
        if (tenants.get("tenants_evicted") == 0 and isinstance(total, dict)
                and isinstance(per_tenant, dict)):
            for key in TENANT_STAT_KEYS:
                want = total.get(key)
                got = sum(row.get("stats", {}).get(key, 0)
                          for row in per_tenant.values()
                          if isinstance(row, dict))
                if isinstance(want, int) and got != want:
                    err(f"{path}.tenants.per_tenant",
                        f"sum of '{key}' over rows = {got} != total {want} "
                        f"with tenants_evicted == 0")

    # Per-node health verdicts from the periodic evaluator.
    if "health" not in doc:
        err(path, "missing top-level key 'health'")
    health = doc.get("health", {})
    if check_type(f"{path}.health", health, dict, "health"):
        for node, body in health.items():
            p = f"{path}.health.{node}"
            if not check_type(p, body, dict, "node health"):
                continue
            state = body.get("state")
            if state not in HEALTH_STATES:
                err(f"{p}.state", f"state should be one of {HEALTH_STATES}, "
                                  f"got {state!r}")
            if "reason" not in body:
                err(p, "missing key 'reason'")
            else:
                check_type(f"{p}.reason", body["reason"], str, "reason")

    # Optional utilization time series (present when the sampler ran).
    if "timeseries" in doc:
        ts = doc["timeseries"]
        if check_type(f"{path}.timeseries", ts, dict, "timeseries"):
            check_type(f"{path}.timeseries.interval_ns",
                       ts.get("interval_ns", 0), int, "interval_ns")
            series = ts.get("series", {})
            if check_type(f"{path}.timeseries.series", series, dict, "series"):
                for node, metrics in series.items():
                    p = f"{path}.timeseries.series.{node}"
                    if not check_type(p, metrics, dict, "node series"):
                        continue
                    for name, points in metrics.items():
                        pp = f"{p}.{name}"
                        if not check_type(pp, points, list, "points"):
                            continue
                        for j, pt in enumerate(points):
                            if (not isinstance(pt, list) or len(pt) != 2
                                    or not isinstance(pt[0], int)
                                    or not isinstance(pt[1], (int, float))):
                                err(f"{pp}[{j}]",
                                    "sample should be [time_ns, value]")
                                break


# Series the scale sweep must record at every point (bench/bench_scale.cpp).
# (figure, architecture, unit); sojourn percentiles are context, but context
# that silently vanishes is a regression too, so they are required here.
SCALE_SERIES = (
    ("rate", "scale-core", "client-s/s"),
    ("ops_per_kevent", "scale-core", "ops/kevent"),
    ("client_s_per_kevent", "scale-core", "client-s/kevent"),
    ("frame_reuse", "scale-core", "ratio"),
    ("buffer_reuse", "scale-core", "ratio"),
    ("p50_sojourn", "scale-core", "s"),
    ("p99_sojourn", "scale-core", "s"),
    ("peak_concurrency", "scale-core", "sessions"),
    ("events_per_wall_s", "scale-core", "ev/s"),
)


def check_scale_bench(path, records):
    """BENCH_scale.json content contract: every sweep point carries the full
    set of series, rates and counters are positive, and the big point
    sustains a four-digit concurrent population."""
    by_series = {}
    for rec in records:
        if not isinstance(rec, dict):
            continue
        key = (rec.get("figure"), rec.get("architecture"))
        by_series.setdefault(key, []).append(rec)

    points = sorted({r.get("clients") for recs in by_series.values()
                     for r in recs if isinstance(r.get("clients"), int)})
    if not points:
        err(path, "scale bench has no sweep points")
        return

    for figure, arch, unit in SCALE_SERIES:
        recs = by_series.get((figure, arch))
        if not recs:
            err(path, f"missing scale series {figure}/{arch}")
            continue
        have = sorted(r.get("clients") for r in recs)
        if have != points:
            err(path, f"series {figure}/{arch} covers points {have}, "
                      f"expected {points}")
        for r in recs:
            if r.get("unit") != unit:
                err(path, f"series {figure}/{arch} unit "
                          f"{r.get('unit')!r}, expected {unit!r}")
            if figure in ("rate", "ops_per_kevent", "client_s_per_kevent",
                          "frame_reuse", "buffer_reuse", "peak_concurrency",
                          "events_per_wall_s"):
                v = r.get("value")
                if isinstance(v, (int, float)) and v <= 0:
                    err(path, f"series {figure}/{arch} point "
                              f"{r.get('clients')} is non-positive ({v})")

    big = max(points)
    if big >= 1000:
        peaks = [r.get("value")
                 for r in by_series.get(("peak_concurrency", "scale-core"), [])
                 if r.get("clients") == big]
        if peaks and isinstance(peaks[0], (int, float)) and peaks[0] < 1000:
            err(path, f"point {big} peak_concurrency {peaks[0]} < 1000 — "
                      "the sweep no longer sustains a thousand clients")
    else:
        err(path, f"largest sweep point is {big}; the scale bench must "
                  "include a >= 1000-client point")


def check_file(filename):
    try:
        with open(filename, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        err(filename, f"unreadable or not JSON: {e}")
        return
    if isinstance(doc, dict) and "records" in doc:
        check_type(f"{filename}.bench", doc.get("bench", ""), str, "bench")
        records = doc["records"]
        if not check_type(f"{filename}.records", records, list, "records"):
            return
        for i, rec in enumerate(records):
            p = f"{filename}.records[{i}]"
            if not check_type(p, rec, dict, "record"):
                continue
            for key, types in (("figure", str), ("architecture", str),
                               ("clients", int), ("value", (int, float)),
                               ("unit", str)):
                if key not in rec:
                    err(p, f"missing key '{key}'")
                else:
                    check_type(f"{p}.{key}", rec[key], types, key)
            # Derived figures (e.g. bench_obs_overhead's wall-clock
            # "rate-ratio" series) carry no per-run export: an empty
            # metrics object is allowed, a partial one is not.
            metrics = rec.get("metrics", {})
            if metrics:
                check_metrics_doc(f"{p}.metrics", metrics)
        if doc.get("bench") == "scale":
            check_scale_bench(f"{filename}.records", records)
    else:
        check_metrics_doc(filename, doc)


def main(argv):
    files = []
    i = 1
    while i < len(argv):
        if argv[i] == "--run":
            i += 1
            if i >= len(argv):
                print("--run requires the bench_micro path", file=sys.stderr)
                return 2
            bench = argv[i]
            out = os.path.join(tempfile.mkdtemp(prefix="dpnfs_metrics_"),
                               "metrics.json")
            subprocess.run([bench, f"--metrics-smoke={out}"], check=True)
            files.append(out)
        else:
            files.append(argv[i])
        i += 1
    if not files:
        print(__doc__, file=sys.stderr)
        return 2
    for f in files:
        check_file(f)
    if errors:
        for e in errors:
            print(f"SCHEMA ERROR {e}", file=sys.stderr)
        return 1
    print(f"ok: {len(files)} file(s) match the metrics schema")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
