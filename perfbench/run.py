#!/usr/bin/env python3
"""The repository benchmark: host time of three simulator scenarios.

    python3 perfbench/run.py --workload lhc_tier --seed 3 --seconds 20 --trace 0

Run from the repository root. The first call builds perfbench/ (and with it
the simulator libraries under src/) into .bench_build/perfbench with CMake.
Each scenario INI is written here from --seed; the C++ harness
(perfbench/harness.cpp) only receives the generated file and runs it once
per process through the facade registry.

--trace 0 runs the scenario untraced, back to back, for --seconds and
reports the end-to-end metrics: medians over the runs of each run's times
scaled to a nominal host speed (see REF_NOMINAL_S). --trace 1 runs
rounds of untraced / traced / observability-enabled runs for --seconds and
reports the per-layer metrics. Every run's simulated result and executed
event count must match the digest recorded in perfbench/digests.json for
the input seed; a mismatch, a crash, a timeout or a non-zero facade exit
code counts as a failed run and fails the command.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Progress and the per-run detail go to stderr and to
.bench_build/perfbench/last/<workload>-seed<S>-trace<N>.json.

Maintenance: --record re-records the digests of every input seed (only after
a change that is meant to alter simulated output).
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "lsds_perfbench")
WORK = os.path.join(BUILD, "work")
DIGESTS = os.path.join(HERE, "digests.json")

# --seed selects one of INPUT_SEEDS scenario seeds, so that every input the
# benchmark can generate has a recorded digest.
INPUT_SEEDS = 16
RUN_TIMEOUT_S = 30
# The harness brackets every run with a fixed reference kernel that takes
# about this long on a quiet host. Each run's end-to-end times are scaled by
# REF_NOMINAL_S / (its kernel time), which cancels most of a shared host's
# speed drift (up to 1.6x over minutes on a busy VM).
REF_NOMINAL_S = 0.05
# Traced-run wall partition: queue busy + handler self + the rest must add
# up to the run wall within this share of it.
PARTITION_TOLERANCE = 0.01
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = {
    "lhc_tier": """\
[scenario]
facade = monarc
seed = {seed}
queue = calendar
strict = true

[monarc]
t1 = 9
t2_per_t1 = 6
files = 500
link = 10Gbps
archive = yes

[network]
incremental = true
""",
    "p2p_churn": """\
[scenario]
facade = p2p
seed = {seed}
queue = ladder
strict = true

[p2p]
overlay = chord
peers = 100000
sites = 16
protocol = true
churn = exponential
mean_lifetime = 600s
mean_downtime = 30s
lookup_rate = 2000
horizon = 15s
""",
    "tier_parallel": """\
[scenario]
facade = monarc
seed = {seed}
queue = calendar
strict = true

[monarc]
t1 = 15
t2_per_t1 = 16
files = 250

[execution]
mode = parallel
lps = 4
threads = {threads}
partition = metis-ish
""",
}

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.queue.push_ns_mean": "ns",
    "core.queue.pop_ns_mean": "ns",
    "core.queue.busy_s": "s",
    "core.queue.pending_max": "count",
    "core.engine.scheduled": "count",
    "core.engine.executed": "count",
    "core.engine.cancelled": "count",
    "core.engine.useful_ratio": "ratio",
    "core.engine.overhead_s": "s",
    "core.dispatch.handler_s": "s",
    "core.parallel.windows": "count",
    "core.parallel.events_per_window": "count",
    "core.parallel.cross_messages": "count",
    "core.parallel.lp_imbalance": "ratio",
    "core.parallel.wall_per_window_us": "us",
    "core.parallel.speedup_vs_1thread": "ratio",
    "net.flow.done": "count",
    "net.flow.aborted": "count",
    "net.flow.concurrency_mean": "flows",
    "net.flow.reschedules_per_flow": "ratio",
    "hosts.cpu.jobs_done": "count",
    "middleware.scheduler.dispatches": "count",
    "p2p.messages": "count",
    "p2p.stabilize_rounds": "count",
    "p2p.deaths": "count",
    "p2p.peak_pending": "count",
    "obs.profiler_overhead_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- inputs ------------------------------------------------------------------


def input_seed(seed):
    return 1 + seed % INPUT_SEEDS


def scenario_ini(workload, seed, threads=1, observed=False):
    text = WORKLOADS[workload].format(seed=input_seed(seed), threads=threads)
    if observed:
        text += "\n[observability]\nenabled = true\n"
    return text


def write_ini(workload, seed, tag, **kw):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "%s-%d-%s.ini" % (workload, input_seed(seed), tag))
    with open(path, "w") as f:
        f.write(scenario_ini(workload, seed, **kw))
    return path


# --- build -------------------------------------------------------------------


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no src/CMakeLists.txt under %s; run from the repository "
                         "root" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "lsds_perfbench"],
                   stdout=sys.stderr, check=True)


# --- one run -----------------------------------------------------------------


class RunFailed(Exception):
    pass


def run_harness(ini, traced=False, spans=None):
    """One facade run in a fresh process; returns the harness record."""
    cmd = [HARNESS, "--ini=" + ini]
    if traced:
        cmd.append("--traced")
        if spans:
            cmd.append("--spans=" + spans)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed("%s: timed out after %d s" % (ini, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise RunFailed("%s: exit %d: %s" % (ini, proc.returncode, proc.stderr.strip()[-400:]))
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RunFailed("%s: no result line" % ini)
    if rec.get("rc") != 0:
        raise RunFailed("%s: facade returned %s" % (ini, rec.get("rc")))
    return rec


def events_of(rec):
    """Executed events: the serial engine's count, or the parallel engine's."""
    ex = rec.get("execution")
    return ex["events"] if ex else rec["executed"]


def digest(rec):
    """Digest of what the run simulated: the result section and the events."""
    text = json.dumps({"result": rec["result"], "events": events_of(rec)}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def check_digest(rec, expected):
    got = digest(rec)
    if got != expected:
        raise RunFailed("output digest %s != recorded %s" % (got, expected))


# --- statistics --------------------------------------------------------------


def summary(values):
    """Min, quartiles, median, max and sample count."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"min": values[0], "q1": q1, "median": statistics.median(values), "q3": q3,
            "max": values[-1], "n": len(values)}


def check_metrics(metrics, declared):
    """Self-check of the output: declared names, valid names, a unit on each."""
    if set(metrics) != set(declared):
        raise AssertionError("metric set %s != declared %s" % (sorted(metrics), sorted(declared)))
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise AssertionError("bad metric name %r" % name)
        if not m.get("unit") or m["unit"] != declared[name]:
            raise AssertionError("metric %s lacks its unit" % name)
        if not isinstance(m.get("value"), (int, float)):
            raise AssertionError("metric %s has no numeric value" % name)


def check_partition(rec, tolerance=PARTITION_TOLERANCE):
    """busy + handler + the rest must cover the traced run's wall, no more."""
    L = rec["layers"]
    parts = (L["busy_s"], L["handler_s"], L["outside_s"] + L["loop_s"])
    if min(parts) < 0 or abs(sum(parts) - rec["wall_s"]) > tolerance * rec["wall_s"]:
        raise RunFailed("traced wall %.6f s != busy %.6f + handler %.6f + rest %.6f" %
                        (rec["wall_s"], *parts))


# --- workloads ---------------------------------------------------------------


class Tally:
    """Counts facade runs attempted and failed, and keeps their errors."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, ini, check=None, **kw):
        self.attempted += 1
        try:
            rec = run_harness(ini, **kw)
            check_digest(rec, self.expected)
            if check:
                check(rec)
            return rec
        except RunFailed as e:
            self.failed += 1
            self.errors.append(str(e))
            log("perfbench: FAILED: %s" % e)
            return None


def four_thread_check(tally, workload, seed, rec1):
    """tier_parallel: the 4-thread result must equal the 1-thread result."""
    rec4 = tally.run(write_ini(workload, seed, "t4", threads=4))
    if rec4 and rec1 and (rec4["result"], events_of(rec4)) != (rec1["result"], events_of(rec1)):
        tally.failed += 1
        tally.errors.append("threads=4 result differs from threads=1")
    return rec4


def measure(workload, seed, seconds, tally):
    """--trace 0: untraced runs back to back for `seconds`."""
    ini = write_ini(workload, seed, "run")
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        rec = tally.run(ini)
        if rec is None:
            break
        runs.append(rec)
        log("perfbench: %s run %d: wall %.3f s, setup %.4f s" %
            (workload, len(runs), rec["wall_s"], rec["setup_s"]))
    if workload == "tier_parallel" and runs:
        four_thread_check(tally, workload, seed, runs[0])
    if not runs:
        return None, {}
    raw = {
        "wall_s": [r["wall_s"] for r in runs],
        "events_per_s": [events_of(r) / (r["wall_s"] - r["setup_s"]) for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "ref_s": [r["ref_s"] for r in runs],
    }
    # Each run's times at nominal host speed: scale < 1 while the host ran slow.
    scale = [REF_NOMINAL_S / r for r in raw["ref_s"]]
    scaled = {
        "wall_s": [x * k for x, k in zip(raw["wall_s"], scale)],
        "events_per_s": [x / k for x, k in zip(raw["events_per_s"], scale)],
        "setup_s": [x * k for x, k in zip(raw["setup_s"], scale)],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    stats = {k: dict(summary(v), samples=v) for k, v in scaled.items()}
    stats["raw"] = {k: dict(summary(v), samples=v) for k, v in raw.items()}
    metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    return metrics, stats


def layer_values(workload, traced, untraced_wall, observed_wall, four_thread_wall):
    """Per-layer metrics from one traced run and its untraced counterparts."""
    L = traced["layers"]
    res = traced["result"]
    ex = traced.get("execution") or {}
    executed = events_of(traced)
    windows = ex.get("windows", 0)
    v = dict.fromkeys(PER_LAYER, 0)
    if not ex:  # serial: the probe sees the engine
        v["core.queue.push_ns_mean"] = L["push_ns_mean"]
        v["core.queue.pop_ns_mean"] = L["pop_ns_mean"]
        v["core.queue.busy_s"] = L["busy_s"]
        v["core.queue.pending_max"] = L["pending_max"]
        v["core.engine.scheduled"] = traced["scheduled"]
        v["core.engine.cancelled"] = traced["cancelled"]
        v["core.engine.useful_ratio"] = executed / max(1, traced["scheduled"])
        v["core.dispatch.handler_s"] = L["handler_s"]
        v["core.engine.overhead_s"] = traced["wall_s"] - L["busy_s"] - L["handler_s"]
    v["core.engine.executed"] = executed
    if windows:
        v["core.parallel.windows"] = windows
        v["core.parallel.events_per_window"] = executed / windows
        v["core.parallel.cross_messages"] = ex["cross_messages"]
        v["core.parallel.lp_imbalance"] = ex["imbalance"]
        v["core.parallel.wall_per_window_us"] = untraced_wall / windows * 1e6
        if four_thread_wall:
            v["core.parallel.speedup_vs_1thread"] = untraced_wall / four_thread_wall
    v["net.flow.done"] = L["flows_done"]
    v["net.flow.aborted"] = L["flows_aborted"]
    if res.get("makespan"):
        v["net.flow.concurrency_mean"] = L["flow_time_s"] / res["makespan"]
    if L["flows_done"] and not ex:
        v["net.flow.reschedules_per_flow"] = traced["cancelled"] / L["flows_done"]
    v["hosts.cpu.jobs_done"] = L["jobs_done"]
    v["middleware.scheduler.dispatches"] = L["dispatches"]
    for k in ("messages", "stabilize_rounds", "deaths", "peak_pending"):
        v["p2p." + k] = res.get(k, 0) if workload == "p2p_churn" else 0
    v["obs.profiler_overhead_frac"] = observed_wall / untraced_wall - 1
    v["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1
    return v


def trace(workload, seed, seconds, tally):
    """--trace 1: rounds of untraced / traced / observed runs for `seconds`."""
    ini = write_ini(workload, seed, "run")
    ini_obs = write_ini(workload, seed, "obs", observed=True)
    spans = os.path.join(WORK, "%s-%d.spans.jsonl" % (workload, input_seed(seed)))
    rounds = []
    four_thread_wall = None
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        untraced = tally.run(ini)
        traced = tally.run(ini, traced=True, spans=spans, check=check_partition)
        observed = tally.run(ini_obs)
        if not (untraced and traced and observed):
            break
        if workload == "tier_parallel" and four_thread_wall is None:
            rec4 = four_thread_check(tally, workload, seed, untraced)
            if not rec4:
                break
            four_thread_wall = rec4["wall_s"]
        rounds.append(layer_values(workload, traced, untraced["wall_s"], observed["wall_s"],
                                   four_thread_wall))
        log("perfbench: %s round %d: untraced %.3f s, traced %.3f s, observed %.3f s" %
            (workload, len(rounds), untraced["wall_s"], traced["wall_s"], observed["wall_s"]))
    if not rounds:
        return None, {}
    stats = {k: summary([r[k] for r in rounds]) for k in PER_LAYER}
    metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in PER_LAYER.items()}
    return metrics, stats


# --- maintenance -------------------------------------------------------------


def record():
    """Re-record the output digest of every workload and input seed."""
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for s in range(INPUT_SEEDS):
            rec = run_harness(write_ini(workload, s, "run"))
            table[workload][str(input_seed(s))] = digest(rec)
            log("perfbench: recorded %s seed %d: %s" % (workload, input_seed(s), digest(rec)))
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record output digests")
    args = ap.parse_args(argv)
    if not args.record and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    if args.record:
        record()
        return 0

    expected = load_digests()[args.workload][str(input_seed(args.seed))]
    tally = Tally(expected)
    if args.trace:
        metrics, stats = trace(args.workload, args.seed, args.seconds, tally)
        declared = PER_LAYER
    else:
        metrics, stats = measure(args.workload, args.seed, args.seconds, tally)
        declared = END_TO_END
    correct = tally.failed == 0 and metrics is not None
    detail = {"workload": args.workload, "seed": args.seed, "input_seed": input_seed(args.seed),
              "trace": args.trace, "attempted": tally.attempted, "failed": tally.failed,
              "errors": tally.errors, "stats": stats}
    os.makedirs(os.path.join(BUILD, "last"), exist_ok=True)
    with open(os.path.join(BUILD, "last", "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(detail, f, indent=2)
    if correct:
        check_metrics(metrics, declared)
    else:
        log("perfbench: %d of %d runs failed: %s" %
            (tally.failed, tally.attempted, "; ".join(tally.errors)))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
