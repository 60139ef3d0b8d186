#!/usr/bin/env python3
"""Steadiness check for the undefc benchmark.

Runs every workload repeatedly, each time with another seed, and prints
each end-to-end metric's spread -- the distance between the first and
third quartile as a share of the median, as statistics.quantiles gives
them -- against the metric's bound in BENCHMARK.json. A metric whose
spread exceeds a tenth is named as not repeating within a tenth.

With --trace it instead runs the traced run twice per workload with the
same seed and names the per-layer metrics that repeated exactly.

Run from the repository root:

    python3 perfbench/steady.py --runs 10                # all workloads
    python3 perfbench/steady.py --runs 5 --workloads explore
    python3 perfbench/steady.py --trace --out traced.json

Exits 1 if a run fails, reports a failed operation, or a spread (other
than setup_s) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    raw = [l for l in proc.stderr.splitlines() if l.startswith("perfbench: raw ")]
    res["raw"] = json.loads(raw[-1][len("perfbench: raw "):]) if raw else None
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
    return res


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steadiness(spec, workloads, runs, seed0):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, bad = {}, False
    for w in workloads:
        values = {name: [] for name in bounds}
        raw = {name: [] for name in bounds}
        for i in range(runs):
            res = run(spec, w, seed0 + i, 0)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
                raw[name].append(res["raw"]["metrics"][name]["value"])
            print(f"  {w} seed {seed0 + i}: ok ({res['attempted']} checked)", file=sys.stderr)
        print(f"\n{w}: {runs} runs, seeds {seed0}..{seed0 + runs - 1}")
        print(f"  {'metric':<24} {'median':>12} {'spread':>8} {'raw':>8} {'bound':>6}")
        report[w] = {}
        for name, bound in bounds.items():
            q1, med, q3, s = spread(values[name])
            raw_spread = spread(raw[name])[3]
            flags = []
            if s > 0.1:
                flags.append("does not repeat within a tenth")
            if s > bound / 3:
                flags.append("over a third of its bound")
            if s > bound and name != "setup_s":
                flags.append("OVER BOUND")
                bad = True
            print(f"  {name:<24} {med:>12.4f} {s:>8.3f} {raw_spread:>8.3f} {bound:>6.2f}  {'; '.join(flags)}")
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": s, "raw_spread": raw_spread,
                               "bound": bound, "values": values[name], "raw_values": raw[name]}
    return report, bad


def repeatability(spec, workloads, seed):
    report = {}
    for w in workloads:
        a, b = run(spec, w, seed, 1), run(spec, w, seed, 1)
        exact = sorted(k for k in a["metrics"] if a["metrics"][k]["value"] == b["metrics"][k]["value"])
        print(f"\n{w}: per-layer metrics that repeated exactly (seed {seed}): {', '.join(exact)}")
        report[w] = {k: {"first": a["metrics"][k]["value"], "second": b["metrics"][k]["value"],
                         "unit": a["metrics"][k]["unit"], "repeated_exactly": k in exact}
                     for k in sorted(a["metrics"])}
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true", help="check per-layer repeatability instead")
    ap.add_argument("--out", default="", help="also write the figures as JSON to this file")
    args = ap.parse_args()

    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bad = False
    if args.trace:
        report = repeatability(spec, workloads, args.seed0)
    else:
        report, bad = steadiness(spec, workloads, args.runs, args.seed0)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
