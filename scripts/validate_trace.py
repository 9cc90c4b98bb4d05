#!/usr/bin/env python3
"""Validate observability trace exports (stdlib only; CI gate).

Checks a Konata/Kanata pipeline trace and/or a Chrome/Perfetto
trace-event JSON produced by the src/obs sinks:

  validate_trace.py --kanata trace.kanata --perfetto trace_timeline.json

Kanata checks: header line, monotonic cycle stream, every file id is
introduced by an I line before any L/S/E/R references it, S/E stage
pairing (no E without a preceding S of that stage, every started stage
eventually ends), and exactly one R (retire/flush) line per file id.

Perfetto checks: valid JSON, a traceEvents array, every event carries
the required keys for its phase (X: ts/dur/name, C: ts/name/args,
i: ts/name/s, M: name/args), and pid/tid/ts are integers.

Exit status 0 when every requested check passes, 1 otherwise.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return False


def validate_kanata(path):
    ok = True
    intro = set()       # fids introduced by I
    open_stages = {}    # fid -> set of open stage names
    retired = set()     # fids that saw an R line
    labeled = set()
    ncycles = 0
    with open(path, encoding="utf-8") as f:
        first = f.readline().rstrip("\n")
        if not first.startswith("Kanata\t"):
            return fail(f"{path}: missing 'Kanata' header (got {first!r})")
        for lineno, raw in enumerate(f, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            cmd = parts[0]
            where = f"{path}:{lineno}"
            if cmd == "C=":
                if len(parts) != 2 or not parts[1].isdigit():
                    ok = fail(f"{where}: malformed C= line {line!r}")
                ncycles += 1
            elif cmd == "C":
                if len(parts) != 2 or not parts[1].isdigit():
                    ok = fail(f"{where}: malformed C line {line!r}")
                elif int(parts[1]) == 0:
                    ok = fail(f"{where}: zero cycle delta")
                ncycles += 1
            elif cmd == "I":
                if len(parts) != 4:
                    ok = fail(f"{where}: malformed I line {line!r}")
                    continue
                fid = parts[1]
                if fid in intro:
                    ok = fail(f"{where}: duplicate I for fid {fid}")
                intro.add(fid)
                open_stages[fid] = set()
            elif cmd in ("L", "S", "E", "R"):
                if len(parts) < 4:
                    ok = fail(f"{where}: malformed {cmd} line {line!r}")
                    continue
                fid = parts[1]
                if fid not in intro:
                    ok = fail(f"{where}: {cmd} references fid {fid} "
                              "before its I line")
                    continue
                if cmd == "L":
                    labeled.add(fid)
                elif cmd == "S":
                    st = parts[3]
                    if st in open_stages[fid]:
                        ok = fail(f"{where}: stage {st} re-opened for "
                                  f"fid {fid}")
                    open_stages[fid].add(st)
                elif cmd == "E":
                    st = parts[3]
                    if st not in open_stages[fid]:
                        ok = fail(f"{where}: E without S for stage {st} "
                                  f"fid {fid}")
                    else:
                        open_stages[fid].discard(st)
                elif cmd == "R":
                    if parts[3] not in ("0", "1"):
                        ok = fail(f"{where}: R type {parts[3]} not 0/1")
                    if fid in retired:
                        ok = fail(f"{where}: duplicate R for fid {fid}")
                    retired.add(fid)
            else:
                ok = fail(f"{where}: unknown command {cmd!r}")
    for fid, stages in open_stages.items():
        if stages:
            ok = fail(f"{path}: fid {fid} ends with open stages "
                      f"{sorted(stages)}")
    missing_r = intro - retired
    if missing_r:
        ok = fail(f"{path}: {len(missing_r)} fids have no R line "
                  f"(e.g. {sorted(missing_r)[:5]})")
    unlabeled = intro - labeled
    if unlabeled:
        ok = fail(f"{path}: {len(unlabeled)} fids have no L line")
    if not intro:
        ok = fail(f"{path}: no instructions in trace")
    if ok:
        print(f"OK: {path}: {len(intro)} uops, {ncycles} cycle marks")
    return ok


REQUIRED_KEYS = {
    "X": ("ts", "dur", "name", "pid", "tid"),
    "C": ("ts", "name", "args", "pid", "tid"),
    "M": ("name", "args", "pid", "tid"),
}


def validate_perfetto(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return fail(f"{path}: missing top-level traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        return fail(f"{path}: traceEvents empty or not an array")
    ok = True
    counts = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            ok = fail(f"{path}: event {i} has no phase")
            continue
        ph = ev["ph"]
        counts[ph] = counts.get(ph, 0) + 1
        req = REQUIRED_KEYS.get(ph)
        if req is None:
            ok = fail(f"{path}: event {i} has unexpected phase {ph!r}")
            continue
        for k in req:
            if k not in ev:
                ok = fail(f"{path}: {ph} event {i} missing key {k!r}")
        for k in ("ts", "dur", "pid", "tid"):
            if k in ev and not isinstance(ev[k], int):
                ok = fail(f"{path}: event {i} key {k!r} not an integer")
    if counts.get("X", 0) == 0:
        ok = fail(f"{path}: no X (rule fire) slices")
    if counts.get("M", 0) == 0:
        ok = fail(f"{path}: no M (metadata) events")
    if ok:
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"OK: {path}: {len(events)} events ({summary})")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kanata", help="Konata/Kanata pipeline trace")
    ap.add_argument("--perfetto", help="Chrome/Perfetto trace-event JSON")
    args = ap.parse_args()
    if not args.kanata and not args.perfetto:
        ap.error("nothing to validate: pass --kanata and/or --perfetto")
    ok = True
    if args.kanata:
        ok = validate_kanata(args.kanata) and ok
    if args.perfetto:
        ok = validate_perfetto(args.perfetto) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
