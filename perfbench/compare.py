#!/usr/bin/env python3
"""Compare two sets of perfbench records, metric by metric.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are record files or directories of them (run.py keeps
one per run under .bench_build/perfbench/records). Records are grouped
by workload and trace mode; each side's median is compared against the
bound BENCHMARK.json fixes for the metric. The comparison is refused
(exit code 2) when any two records come from different hosts: see
fingerprint.HOST_FIELDS.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import fingerprint  # noqa: E402


def load_records(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    if not records:
        raise SystemExit(f"compare: no records under {path}")
    return records


def check_hosts(before, after):
    """Every record must share the first record's host fingerprint."""
    first = before[0]["fingerprint"]
    for rec in before + after:
        fingerprint.require_same_host(first, rec["fingerprint"])


def medians(records):
    """(workload, trace) -> metric -> median value."""
    grouped = {}
    for rec in records:
        key = (rec["workload"], rec["trace"])
        for name, m in rec["metrics"].items():
            grouped.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return {k: {n: statistics.median(v) for n, v in ms.items()} for k, ms in grouped.items()}


def compare(before, after, spec):
    """Rows of (workload, metric, before, after, change, bound, verdict)."""
    check_hosts(before, after)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    mb, ma = medians(before), medians(after)
    rows = []
    for key in sorted(set(mb) & set(ma)):
        for name in sorted(set(mb[key]) & set(ma[key])):
            b, a = mb[key][name], ma[key][name]
            m = specs.get(name, {})
            change = (a - b) / b if b else 0.0
            worse = -change if m.get("better") == "higher" else change
            bound = m.get("bound")
            if bound is None:
                verdict = "-"
            else:
                verdict = "WORSE" if worse > bound else "ok"
            rows.append((key[0], name, b, a, change, bound, verdict))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    opts = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        rows = compare(load_records(opts.before), load_records(opts.after), spec)
    except fingerprint.FingerprintMismatch as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print(f"{'workload':12s} {'metric':34s} {'before':>12s} {'after':>12s} {'change':>8s}  verdict")
    for wl, name, b, a, change, bound, verdict in rows:
        print(f"{wl:12s} {name:34s} {b:12.5g} {a:12.5g} {change:+8.2%}  {verdict}"
              + (f" (bound {bound:.0%})" if bound is not None else ""))
    return 1 if any(r[6] == "WORSE" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
