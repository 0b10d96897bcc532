#!/usr/bin/env python3
"""Steadiness and regression checks over sets of benchmark runs.

    python3 perfbench/compare.py collect OUT [--seeds 0-9]
    python3 perfbench/compare.py spread SET
    python3 perfbench/compare.py compare BASE NEW

Run from the root of a source checkout.

collect runs perfbench/run.py untraced once per workload of BENCHMARK.json
and seed, for BENCHMARK.json's run_seconds, and keeps each run's JSON
result as OUT/<workload>/<seed>.json. A run stops the collection when it
fails.

spread prints, for every workload and end-to-end metric of a set, the
median over its runs and the inter-quartile spread (q3 - q1, quartiles as
statistics.quantiles(values, n=4) gives them) as a share of the median,
next to the metric's bound from BENCHMARK.json. A spread above the bound
fails; one above a third of it is flagged.

compare prints, for every workload and end-to-end metric, how much worse
NEW's median is than BASE's, as a share of BASE's, and fails when that
exceeds the metric's bound.

Both fail when a workload or metric of BENCHMARK.json is missing from a
set, or when a run of a set reported failures, and then exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    bench = benchmark()
    for w in [w["name"] for w in bench["workloads"]]:
        os.makedirs(os.path.join(args.out, w), exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit("run failed: " + " ".join(cmd))
            with open(os.path.join(args.out, w, "%d.json" % seed), "w") as f:
                f.write(lines[-1] + "\n")
            print("%s seed %d: %s" % (w, seed, lines[-1]), flush=True)
    return 0


def load_set(path):
    """{workload: {metric: [values]}}, and whether every run was clean."""
    out = {}
    clean = True
    for w in sorted(os.listdir(path)):
        metrics = {}
        for name in sorted(os.listdir(os.path.join(path, w))):
            with open(os.path.join(path, w, name)) as f:
                r = json.loads(f.read())
            if not r["correct"] or r["failed"]:
                print("%s/%s/%s: run reported failures" % (path, w, name))
                clean = False
            for metric, m in r["metrics"].items():
                metrics.setdefault(metric, []).append(m["value"])
        out[w] = metrics
    return out, clean


def values(runs, path, workload, metric):
    """The set's values of one metric; [] (reported) when missing."""
    v = runs.get(workload, {}).get(metric, [])
    if not v:
        print("%s: no %s values for %s" % (path, metric, workload))
    return v


def iqr_share(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread(args):
    bench = benchmark()
    runs, ok = load_set(args.set)
    print("%-18s %-14s %6s %14s %8s %7s  verdict" %
          ("workload", "metric", "runs", "median", "spread", "bound"))
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            v = values(runs, args.set, w, m["name"])
            if not v:
                ok = False
                continue
            s = iqr_share(v)
            verdict = "ok"
            if s > m["bound"]:
                verdict, ok = "TOO NOISY", False
            elif s > m["bound"] / 3:
                verdict = "above bound/3"
            print("%-18s %-14s %6d %14.6g %7.1f%% %6.0f%%  %s" %
                  (w, m["name"], len(v), statistics.median(v), 100 * s,
                   100 * m["bound"], verdict))
    return 0 if ok else 1


def compare(args):
    bench = benchmark()
    base, base_ok = load_set(args.base)
    new, new_ok = load_set(args.new)
    ok = base_ok and new_ok
    print("%-18s %-14s %14s %14s %8s %7s  verdict" %
          ("workload", "metric", "base median", "new median", "worse",
           "bound"))
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            va = values(base, args.base, w, m["name"])
            vb = values(new, args.new, w, m["name"])
            if not va or not vb:
                ok = False
                continue
            a, b = statistics.median(va), statistics.median(vb)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "REGRESSED"
            ok = ok and verdict == "ok"
            print("%-18s %-14s %14.6g %14.6g %7.1f%% %6.0f%%  %s" %
                  (w, m["name"], a, b, 100 * worse, 100 * m["bound"],
                   verdict))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", default="0-9")
    s = sub.add_parser("spread")
    s.add_argument("set")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = ap.parse_args()
    return {"collect": collect, "spread": spread, "compare": compare}[
        args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
