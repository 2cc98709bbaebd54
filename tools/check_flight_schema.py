#!/usr/bin/env python3
"""Validate a dpnfs flight-recorder dump (see docs/observability.md).

The dump is one JSON object:

  {"capacity": int, "events_recorded": int, "events_dropped": int,
   "events": [{"seq": int, "time_ns": int, "node": str, "component": str,
               "kind": str, "detail": str}, ...]}

Checks: the counter arithmetic holds (resident == recorded - dropped,
resident <= capacity), sequence numbers are strictly increasing and the
newest event's seq equals events_recorded, times are monotone non-decreasing
(simulated time never runs backwards), and every event carries all six
fields with the right types.

Usage:
  check_flight_schema.py FILE.json [FILE2.json ...]
  check_flight_schema.py --run /path/to/simulate
      (runs a seeded chaos workload TWICE with --flight-out, byte-compares
       the two dumps — the determinism contract — validates the schema, and
       requires the recovery ladder to be on record: at least one "restart"
       event plus some client-side recovery event.  Then runs a permanent
       data-server kill under 2-way replication with a spare and requires
       the full loss ladder on record: ds.declared_dead, rebuild.start,
       rebuild.complete, plus a degraded.read/write/commit client event.
       Then crashes one non-redundant data server mid-write, twice, and
       requires the ladder's MDS rung on record: breaker.trip, mds.fallback
       and layout.refetch.  Last, kills one node of an EC(4+2) deployment
       before cold readers open, twice, and requires shared device liveness
       on record: the MDS's daemon.down, then layout.flagged and a
       degraded.read on the clients.  The daemon.up that clears the mark
       is pinned by FaultRecovery.RestartedDaemonIsClearedAndUnflagged)
"""

import json
import os
import subprocess
import sys
import tempfile

EVENT_KEYS = {
    "seq": int,
    "time_ns": int,
    "node": str,
    "component": str,
    "kind": str,
    "detail": str,
}

errors = []


def err(path, msg):
    errors.append(f"{path}: {msg}")


def check_doc(path, doc):
    if not isinstance(doc, dict):
        err(path, f"dump should be an object, got {type(doc).__name__}")
        return []
    for key in ("capacity", "events_recorded", "events_dropped", "events"):
        if key not in doc:
            err(path, f"missing top-level key '{key}'")
            return []
    for key in ("capacity", "events_recorded", "events_dropped"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            err(f"{path}.{key}", f"should be int, got "
                                 f"{type(doc[key]).__name__}")
            return []
    events = doc["events"]
    if not isinstance(events, list):
        err(f"{path}.events", "should be a list")
        return []

    if doc["capacity"] < 1:
        err(f"{path}.capacity", "capacity must be >= 1")
    if len(events) != doc["events_recorded"] - doc["events_dropped"]:
        err(f"{path}.events",
            f"{len(events)} resident events != recorded "
            f"{doc['events_recorded']} - dropped {doc['events_dropped']}")
    if len(events) > doc["capacity"]:
        err(f"{path}.events", f"{len(events)} resident events exceed "
                              f"capacity {doc['capacity']}")

    prev_seq = doc["events_dropped"]  # oldest resident is dropped+1
    prev_time = None
    for i, ev in enumerate(events):
        p = f"{path}.events[{i}]"
        if not isinstance(ev, dict):
            err(p, "event should be an object")
            continue
        bad = False
        for key, types in EVENT_KEYS.items():
            if key not in ev:
                err(p, f"missing key '{key}'")
                bad = True
            elif isinstance(ev[key], bool) or not isinstance(ev[key], types):
                err(f"{p}.{key}", f"should be {types.__name__}, got "
                                  f"{type(ev[key]).__name__}")
                bad = True
        if bad:
            continue
        if ev["seq"] != prev_seq + 1:
            err(f"{p}.seq", f"expected {prev_seq + 1}, got {ev['seq']} "
                            "(seqs must be dense and increasing)")
        prev_seq = ev["seq"]
        if prev_time is not None and ev["time_ns"] < prev_time:
            err(f"{p}.time_ns", f"{ev['time_ns']} < previous "
                                f"{prev_time}: simulated time ran backwards")
        prev_time = ev["time_ns"]
        if not ev["kind"]:
            err(f"{p}.kind", "kind must be non-empty")
    if events and events[-1].get("seq") != doc["events_recorded"]:
        err(f"{path}.events", f"newest seq {events[-1].get('seq')} != "
                              f"events_recorded {doc['events_recorded']}")
    return events


def check_file(filename):
    try:
        with open(filename, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        err(filename, f"unreadable or not JSON: {e}")
        return []
    return check_doc(filename, doc)


def run_simulate(simulate, out):
    # Mirrors the chaos recipe in EXPERIMENTS.md: seeded restarts under a
    # two-tenant mix, small enough for a tier-1 gate.
    subprocess.run(
        [simulate, "--arch=direct", "--workload=tenant-mix", "--clients=4",
         "--bytes=8000000", "--txns=200", "--chaos-seed=11",
         f"--flight-out={out}"],
        check=True, stdout=subprocess.DEVNULL)


def run_kill(simulate, out):
    # Mirrors the permanent-kill recipe in EXPERIMENTS.md: 2-way replication,
    # one node killed for good, a spare for the rebuild service to fill.
    subprocess.run(
        [simulate, "--arch=direct", "--workload=ior-write", "--clients=4",
         "--storage-nodes=5", "--redundancy=mirror", "--replicas=2",
         "--spares=1", "--fault-ds-kill=1", "--fault-at-ms=500",
         "--rebuild-after-ms=800", "--bytes=8000000", "--stripe=262144",
         f"--flight-out={out}"],
        check=True, stdout=subprocess.DEVNULL)


def run_crash(simulate, out):
    # A non-redundant Direct-pNFS data server dies mid-write for good: the
    # WRITE ladder trips the breaker, re-fetches the layout and reissues
    # through the MDS (docs/failures.md).
    subprocess.run(
        [simulate, "--arch=direct", "--workload=ior-write", "--clients=4",
         "--fault-ds-crash=1", "--fault-at-ms=500", "--bytes=32000000",
         f"--flight-out={out}"],
        check=True, stdout=subprocess.DEVNULL)


def run_flagged(simulate, out):
    # EC(4+2) Direct-pNFS loses node 1 for good between population and the
    # cold read-back: the MDS's first size gather marks its daemon down and
    # every later layout names the device unavailable (docs/failures.md
    # "Shared device liveness").
    subprocess.run(
        [simulate, "--arch=direct", "--workload=ior-read", "--clients=4",
         "--storage-nodes=6", "--redundancy=ec", "--ec-k=4", "--ec-m=2",
         "--fault-ds-kill=1", "--fault-at-ms=600", "--bytes=8000000",
         f"--flight-out={out}"],
        check=True, stdout=subprocess.DEVNULL)


def main(argv):
    files = []
    i = 1
    while i < len(argv):
        if argv[i] == "--run":
            i += 1
            if i >= len(argv):
                print("--run requires the simulate path", file=sys.stderr)
                return 2
            simulate = argv[i]
            tmp = tempfile.mkdtemp(prefix="dpnfs_flight_")
            first = os.path.join(tmp, "flight_a.json")
            second = os.path.join(tmp, "flight_b.json")
            run_simulate(simulate, first)
            run_simulate(simulate, second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                if fa.read() != fb.read():
                    err(first, "two same-seed runs produced different "
                               "dumps: determinism contract broken")
            events = check_file(first)
            kinds = {ev.get("kind") for ev in events
                     if isinstance(ev, dict)}
            if "restart" not in kinds:
                err(first, "chaos run recorded no 'restart' event "
                           f"(kinds seen: {sorted(k for k in kinds if k)})")
            recovery = {"session.lost", "breaker.trip", "wb.replay",
                        "mds.fallback", "layout.refetch",
                        "verifier.mismatch", "grace.enter", "grace.exit"}
            if not (kinds & recovery):
                err(first, "chaos run recorded no client recovery-ladder "
                           f"event (kinds seen: {sorted(k for k in kinds if k)})")
            files.append(first)  # already checked; keeps the count honest

            # Permanent-kill run: the loss ladder must be on record — the
            # node declared dead, the rebuild bracketed start/complete, and
            # at least one client degraded-mode event in between.
            kill_a = os.path.join(tmp, "kill_a.json")
            kill_b = os.path.join(tmp, "kill_b.json")
            run_kill(simulate, kill_a)
            run_kill(simulate, kill_b)
            with open(kill_a, "rb") as fa, open(kill_b, "rb") as fb:
                if fa.read() != fb.read():
                    err(kill_a, "two permanent-kill runs produced different "
                                "dumps: determinism contract broken")
            kill_events = check_file(kill_a)
            kill_kinds = {ev.get("kind") for ev in kill_events
                          if isinstance(ev, dict)}
            for kind in ("ds.declared_dead", "rebuild.start",
                         "rebuild.complete"):
                if kind not in kill_kinds:
                    err(kill_a, f"permanent-kill run recorded no '{kind}' "
                        f"event (kinds seen: "
                        f"{sorted(k for k in kill_kinds if k)})")
            degraded = {"degraded.read", "degraded.write", "degraded.commit"}
            if not (kill_kinds & degraded):
                err(kill_a, "permanent-kill run recorded no degraded-mode "
                    "client event (kinds seen: "
                    f"{sorted(k for k in kill_kinds if k)})")
            files.append(kill_a)

            # DS crash without redundancy: the MDS-fallback rung.
            crash_a = os.path.join(tmp, "crash_a.json")
            crash_b = os.path.join(tmp, "crash_b.json")
            run_crash(simulate, crash_a)
            run_crash(simulate, crash_b)
            with open(crash_a, "rb") as fa, open(crash_b, "rb") as fb:
                if fa.read() != fb.read():
                    err(crash_a, "two DS-crash runs produced different "
                                 "dumps: determinism contract broken")
            crash_kinds = {ev.get("kind") for ev in check_file(crash_a)
                           if isinstance(ev, dict)}
            for kind in ("breaker.trip", "mds.fallback", "layout.refetch"):
                if kind not in crash_kinds:
                    err(crash_a, f"DS-crash run recorded no '{kind}' event "
                        f"(kinds seen: "
                        f"{sorted(k for k in crash_kinds if k)})")
            files.append(crash_a)

            # Shared device liveness: the MDS marks the dead daemon down
            # and cold clients get layouts flagging its device.
            flag_a = os.path.join(tmp, "flag_a.json")
            flag_b = os.path.join(tmp, "flag_b.json")
            run_flagged(simulate, flag_a)
            run_flagged(simulate, flag_b)
            with open(flag_a, "rb") as fa, open(flag_b, "rb") as fb:
                if fa.read() != fb.read():
                    err(flag_a, "two device-liveness runs produced different "
                                "dumps: determinism contract broken")
            flag_events = [ev for ev in check_file(flag_a)
                           if isinstance(ev, dict)]
            flag_kinds = {ev.get("kind") for ev in flag_events}
            mds_down = [ev for ev in flag_events
                        if ev.get("kind") == "daemon.down"
                        and ev.get("node") == "storage0"]
            if not mds_down:
                err(flag_a, "device-liveness run recorded no 'daemon.down' "
                            "on the MDS node storage0")
            for kind in ("layout.flagged", "degraded.read"):
                if kind not in flag_kinds:
                    err(flag_a, f"device-liveness run recorded no '{kind}' "
                        f"event (kinds seen: "
                        f"{sorted(k for k in flag_kinds if k)})")
            files.append(flag_a)
        else:
            check_file(argv[i])
            files.append(argv[i])
        i += 1
    if not files:
        print(__doc__, file=sys.stderr)
        return 2
    if errors:
        for e in errors:
            print(f"SCHEMA ERROR {e}", file=sys.stderr)
        return 1
    print(f"ok: {len(files)} flight dump(s) match the schema")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
