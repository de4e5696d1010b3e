#!/usr/bin/env python3
"""Compare two traced runs of the benchmark.

    python3 perfbench/compare.py OLD.trace.json NEW.trace.json

Each file is what a traced run (--trace 1) writes, by default
perfbench/out/<workload>-seed<N>.trace.json.  Prints, side by side, the
end-to-end deltas, the per-layer metric deltas and the per-span self-time
deltas.  The deltas are recorded for the reader; nothing here is a gate,
and the exit code is 0 whenever both files parse.
"""
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def pct(old, new):
    if old == 0:
        return "" if new == 0 else "new"
    return "%+.1f%%" % (100.0 * (new - old) / old)


def table(title, rows):
    width = max([len(r[0]) for r in rows] + [4])
    print(title)
    print("  %-*s %16s %16s %10s" % (width, "", "old", "new", "delta"))
    for name, old, new, unit in rows:
        print("  %-*s %16.4f %16.4f %10s  %s" % (width, name, old, new, pct(old, new), unit))


def metric_rows(old, new):
    rows = []
    for name in old:
        if name in new:
            rows.append((name, old[name]["value"], new[name]["value"], old[name]["unit"]))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    if a["workload"] != b["workload"]:
        print("note: comparing different workloads (%s vs %s)" % (a["workload"], b["workload"]))
    print("workload %s: seed %s -> %s" % (a["workload"], a["seed"], b["seed"]))
    table("end to end (plain ops of the traced run)",
          metric_rows(a["end_to_end"], b["end_to_end"]))
    table("per layer", metric_rows(a["per_layer"], b["per_layer"]))
    self_rows = []
    for name in sorted(set(a["self_time"]) & set(b["self_time"])):
        sa, sb = a["self_time"][name], b["self_time"][name]
        self_rows.append((name + " self", sa["self_median_ms"], sb["self_median_ms"], "ms/op"))
        self_rows.append((name + " spans", sa["spans"], sb["spans"], "count"))
    table("span self time (per-op median)", self_rows)
    only = sorted(set(a["self_time"]) ^ set(b["self_time"]))
    if only:
        print("spans in one run only: " + ", ".join(only))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
