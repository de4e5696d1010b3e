#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/test/selftest.py

Run from the repository root (about three minutes).  Checks that
  - every workload (those of BENCHMARK.json, and serve) prints, as the
    last line of each run, the result object with exactly the
    keys correct/attempted/failed/metrics, and passes its output checks;
  - the untraced run prints every end-to-end metric of BENCHMARK.json, and
    the traced run every per-layer metric, each with its declared unit;
  - sim_cycles_per_op, the fingerprint and every per-layer count repeat
    exactly across two runs of one seed;
  - every traced span nests inside its parent, and shares its op id;
  - a held-out seed, never used while tuning, passes every output check.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT = os.path.join(ROOT, "perfbench", "out")
SEED = 1
HELD_OUT_SEED = 977
# At least two windows each: traced and plain ones in a traced run.
TINY = {"lifecycle": ["--ops", "16"], "serve": ["--ops", "64"], "migrate": ["--ops", "16"]}
# Per-layer values that are host times or derived from them; every other
# per-layer metric is a count and must repeat exactly.
TIMED_UNITS = {"ms", "s", "%"}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def run(workload, seed, trace, trace_file=None):
    """One tiny run; a traced run's span file is then moved to trace_file."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + TINY[workload]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    tag = "%s seed=%d trace=%d" % (workload, seed, trace)
    check(p.returncode == 0, "%s exited %d: %s" % (tag, p.returncode, p.stderr[-500:]))
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, tag + ": result keys")
    check(result["correct"] is True and result["failed"] == 0, tag + ": output checks failed")
    check(result["attempted"] >= 1, tag + ": nothing attempted")
    fingerprint = [l for l in lines if l.startswith("# fingerprint=")]
    if trace_file:
        os.replace(os.path.join(OUT, "%s-seed%d.trace.json" % (workload, seed)), trace_file)
    return result, fingerprint


def check_metrics(tag, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    check(set(metrics) == set(want), "%s: metric names %s" % (tag, sorted(set(metrics) ^ set(want))))
    for name, unit in want.items():
        if name in metrics:
            check(metrics[name]["unit"] == unit, "%s: %s unit %s" % (tag, name, metrics[name]["unit"]))
            check(isinstance(metrics[name]["value"], (int, float)), "%s: %s value" % (tag, name))


def check_nesting(tag, spans):
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        check(s["start"] <= s["end"], "%s: span %s ends before it starts" % (tag, s["name"]))
        if s["parent"] < 0:
            continue
        p = by_id.get(s["parent"])
        check(p is not None, "%s: span %s has no parent %d" % (tag, s["name"], s["parent"]))
        if p is None:
            continue
        check(p["start"] <= s["start"] and s["end"] <= p["end"],
              "%s: span %s escapes its parent %s" % (tag, s["name"], p["name"]))
        # a fleet cell's span parents the cell's guest ops, each its own op
        check(p["name"] == "fleet" or p["op"] == s["op"],
              "%s: span %s has another op id than its parent" % (tag, s["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] not in TIMED_UNITS]
    os.makedirs(OUT, exist_ok=True)
    # serve is not in BENCHMARK.json (README, "Noise") but stays runnable
    for w in [x["name"] for x in bench["workloads"]] + ["serve"]:
        print("== " + w, flush=True)
        a, fa = run(w, SEED, 0)
        b, fb = run(w, SEED, 0)
        check_metrics(w + " untraced", a["metrics"], bench["end_to_end"])
        check(a["metrics"]["sim_cycles_per_op"]["value"] == b["metrics"]["sim_cycles_per_op"]["value"],
              w + ": sim_cycles_per_op differs across runs")
        check(fa == fb and fa, w + ": fingerprint differs across runs")
        files = [os.path.join(OUT, "selftest-%s-%d.trace.json" % (w, k)) for k in (1, 2)]
        t = [run(w, SEED, 1, f)[0] for f in files]
        check_metrics(w + " traced", t[0]["metrics"], bench["per_layer"])
        for name in counts:
            check(t[0]["metrics"][name]["value"] == t[1]["metrics"][name]["value"],
                  "%s: per-layer count %s differs across runs (%r vs %r)"
                  % (w, name, t[0]["metrics"][name]["value"], t[1]["metrics"][name]["value"]))
        with open(files[0]) as f:
            trace = json.load(f)
        check(len(trace["spans"]) > 0, w + ": no spans recorded")
        check_nesting(w, trace["spans"])
        run(w, HELD_OUT_SEED, 0)
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
