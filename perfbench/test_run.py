#!/usr/bin/env python3
"""Self-tests of the benchmark driver (perfbench/run.py).

    python3 perfbench/test_run.py        # from the repository root

Pure checks, no build needed: the metric tables agree with BENCHMARK.json,
names and units are well formed, the traced-run wall partition is enforced,
and a corrupted output digest is reported as a failed run, not a pass.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def record(**layers):
    """A canned harness record of a serial lhc_tier-like run."""
    rec = {"rc": 0, "wall_s": 1.0, "setup_s": 0.1, "scheduled": 10, "executed": 4,
           "cancelled": 6, "peak_rss_mb": 20.0, "ref_s": 0.05,
           "result": {"jobs_done": 3, "makespan": 100.0}}
    if layers:
        rec["layers"] = dict({"push_ns_mean": 100.0, "pop_ns_mean": 100.0, "pending_max": 5,
                              "flows_done": 2, "flows_aborted": 0, "flow_time_s": 50.0,
                              "jobs_done": 3, "dispatches": 0}, **layers)
    return rec


class MetricTables(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        with open(BENCHMARK_JSON) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))

    def test_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                self.assertTrue(unit)

    def test_check_metrics_rejects_missing_unit_and_extra_name(self):
        good = {k: {"value": 1.0, "unit": u} for k, u in run.END_TO_END.items()}
        run.check_metrics(good, run.END_TO_END)
        bad = dict(good, wall_s={"value": 1.0, "unit": ""})
        self.assertRaises(AssertionError, run.check_metrics, bad, run.END_TO_END)
        extra = dict(good, error_rate={"value": 0, "unit": "ratio"})
        self.assertRaises(AssertionError, run.check_metrics, extra, run.END_TO_END)


class Partition(unittest.TestCase):
    def test_parts_covering_the_wall_pass(self):
        run.check_partition(record(busy_s=0.4, handler_s=0.35, outside_s=0.05, loop_s=0.2))

    def test_double_counted_time_fails(self):
        rec = record(busy_s=0.4, handler_s=0.6, outside_s=0.05, loop_s=0.2)
        self.assertRaises(run.RunFailed, run.check_partition, rec)

    def test_negative_part_fails(self):
        rec = record(busy_s=0.4, handler_s=-0.01, outside_s=0.41, loop_s=0.2)
        self.assertRaises(run.RunFailed, run.check_partition, rec)

    def test_layer_values_split_the_wall(self):
        rec = record(busy_s=0.4, handler_s=0.35, outside_s=0.05, loop_s=0.2)
        v = run.layer_values("lhc_tier", rec, 0.8, 0.9, None)
        self.assertAlmostEqual(v["core.queue.busy_s"] + v["core.dispatch.handler_s"] +
                               v["core.engine.overhead_s"], rec["wall_s"])
        self.assertAlmostEqual(v["core.engine.useful_ratio"], 0.4)
        self.assertAlmostEqual(v["net.flow.reschedules_per_flow"], 3.0)
        self.assertAlmostEqual(v["trace.overhead_frac"], 0.25)
        self.assertEqual(set(v), set(run.PER_LAYER))


class Digest(unittest.TestCase):
    def test_digest_covers_result_and_events(self):
        a = record()
        b = record()
        b["executed"] += 1
        c = record()
        c["result"]["makespan"] += 1e-9
        self.assertNotEqual(run.digest(a), run.digest(b))
        self.assertNotEqual(run.digest(a), run.digest(c))
        self.assertEqual(run.digest(a), run.digest(record()))

    def main_with_digest(self, expected):
        """run.main on canned runs, with `expected` as the recorded digest."""
        table = {w: {str(run.input_seed(0)): expected} for w in run.WORKLOADS}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "digests.json")
            with open(path, "w") as f:
                json.dump(table, f)
            out = io.StringIO()
            with mock.patch.object(run, "DIGESTS", path), \
                    mock.patch.object(run, "BUILD", tmp), \
                    mock.patch.object(run, "WORK", tmp), \
                    mock.patch.object(run, "build", lambda: None), \
                    mock.patch.object(run, "run_harness", lambda ini, **kw: record()), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = run.main(["--workload", "lhc_tier", "--seed", "0", "--seconds", "0"])
        return rc, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_corrupted_digest_is_an_error(self):
        good = run.digest(record())
        rc, line = self.main_with_digest(("0" if good[0] != "0" else "1") + good[1:])
        self.assertEqual(rc, 1)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_matching_digest_passes(self):
        rc, line = self.main_with_digest(run.digest(record()))
        self.assertEqual(rc, 0)
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (True, 1, 0))
        self.assertEqual(set(line["metrics"]), set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
