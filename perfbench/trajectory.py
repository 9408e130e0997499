#!/usr/bin/env python3
"""Repeated-trial record of the benchmark: one point of the perf trajectory.

    python3 perfbench/trajectory.py --label <commit> [--seeds 10] [--seconds 30]

Run from the repository root. For every workload it runs
`perfbench/run.py --trace 0` once per seed (seeds 1..N) and then once with
`--trace 1`. Per end-to-end metric it prints the median, the quartiles and
the spread (q3 - q1) / median of the per-seed values against the metric's
bound in BENCHMARK.json, and appends the point, with a fingerprint of the
build and host, to perfbench/baseline.json. Exits 1 if a run fails or a
spread other than setup_s's exceeds its bound.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

import run

BASELINE = os.path.join(run.HERE, "baseline.json")


def invoke(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
                           str(trace)], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not line["correct"]:
        raise SystemExit("%s seed %d trace %d failed" % (workload, seed, trace))
    return {k: m["value"] for k, m in line["metrics"].items()}


def fingerprint(seeds, seconds):
    cache = open(os.path.join(run.BUILD, "CMakeCache.txt")).read()
    compiler = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M).group(1)
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()[0]
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M).group(1)
    return {"compiler": version, "build_type": build_type, "nproc": os.cpu_count(),
            "seeds": seeds, "run_seconds": seconds}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    point = {"label": args.label, "date": datetime.date.today().isoformat(), "workloads": {}}
    steady = True
    for workload in run.WORKLOADS:
        values = {k: [] for k in run.END_TO_END}
        for seed in seeds:
            for k, v in invoke(workload, seed, args.seconds, 0).items():
                values[k].append(v)
        e2e = {}
        for k, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / statistics.median(vs)
            e2e[k] = {"median": statistics.median(vs), "q1": q1, "q3": q3, "n": len(vs),
                      "spread": spread, "bound": bounds[k], "values": vs}
            ok = k == "setup_s" or spread <= bounds[k]
            steady &= ok
            print("%-14s %-13s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f / bound %.2f%s"
                  % (workload, k, e2e[k]["median"], q1, q3, spread, bounds[k],
                     "" if ok else "  UNSTEADY"), flush=True)
        layers = invoke(workload, seeds[0], args.seconds, 1)
        point["workloads"][workload] = {"end_to_end": e2e, "per_layer_seed1": layers}

    point["fingerprint"] = fingerprint(seeds, args.seconds)
    doc = {"trajectory": []}
    if os.path.exists(BASELINE):
        with open(BASELINE) as f:
            doc = json.load(f)
    doc["trajectory"].append(point)
    with open(BASELINE, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
