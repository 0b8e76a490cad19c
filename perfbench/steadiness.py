#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 perfbench/steadiness.py [--workloads stream,serve,churn]

Runs every workload in two sets of ten runs of BENCHMARK.json's
run_seconds, set A with seeds 1-10 and set B with seeds 1001-1010,
alternating the sets run by run.  For each workload and end-to-end
metric it prints each set's median and quartiles, the spread
(Q3 - Q1) / median, the spread of the figure before host-speed scaling
(the result file's <metric>.raw, where there is one), and the gap
between the set medians in the metric's worse direction, against the
metric's bound in BENCHMARK.json.  A metric is steady when the gap is
within its bound and, for every metric but setup_s, the spread is too:
setup_s is one cold start per run, so only its set median is compared.
Exit status 1 when a run fails or a metric is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SET_SEEDS = (1, 1001)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    path = os.path.join(ROOT, ".bench_results",
                        "%s-seed%d-trace0.json" % (workload, seed))
    with open(path) as f:
        result["info"] = json.load(f)["info"]
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    results = {w: [[] for _ in SET_SEEDS] for w in workloads}
    for i in range(RUNS):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for s in order:
            seed = SET_SEEDS[s] + i
            for w in workloads:
                result = run_once(w, seed, seconds)
                results[w][s].append(result)
                print("run %2d set %s %-6s seed %5d  %s" % (
                    i, "AB"[s], w, seed,
                    "  ".join("%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                              for m in metrics)), flush=True)

    steady = True
    print()
    print("%-7s %-16s %-3s %13s %13s %13s %7s %7s %8s %6s" % (
        "work", "metric", "set", "median", "q1", "q3", "spread", "raw",
        "gap", "bound"))
    for w in workloads:
        shares = set()
        for runs in results[w]:
            shares.update(r["failed"] / r["attempted"] for r in runs)
        if len(shares) != 1:
            steady = False
            print("%s: failed share differs between runs: %s" % (w, sorted(shares)))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(results[w]):
                med, q1, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                raw = ""
                if name + ".raw" in runs[0]["info"]:
                    raw = "%.4f" % summary(
                        [r["info"][name + ".raw"] for r in runs])[3]
                ok = name == "setup_s" or spread <= bound
                steady = steady and ok
                gap = ""
                if s == 1:
                    worse = (medians[1] - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    gap = "%+.4f" % worse
                    if worse > bound:
                        steady = False
                        gap += "!"
                print("%-7s %-16s %-3s %13.6g %13.6g %13.6g %7.4f %7s %8s %6.3f%s" % (
                    w, name, "AB"[s], med, q1, q3, spread, raw, gap, bound,
                    "" if ok else "  SPREAD > BOUND"))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
