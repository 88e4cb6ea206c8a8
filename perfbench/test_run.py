"""Tests for the benchmark's own logic in run.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest
from pathlib import Path

import run

REPO = Path(__file__).resolve().parent.parent


def fake_raw(trace, n_ops=120, failed=0):
    """A raw document shaped like gcmpi_perfbench's output."""
    counts = {name: 1.0 for name, _, _ in run.COUNTERS}
    counts.update({f"_{c}_{s}_bytes": 1e6 for c in ("mpc", "zfp")
                   for s in ("compress", "decompress")})
    rep = {"setup_s": 0.5, "run_s": 2.0, "nvcsw": 10, "nivcsw": 1, "setup_minflt": 100,
           "run_minflt": 200, "run_sys_s": 0.1, "adapt_choose_ms": 0.2,
           "adapt_observe_ms": 0.1, "call_wall_ms": {"allreduce": 3.0}}
    reps = [dict(rep, traced=bool(trace and i % 2)) for i in range(4)]
    raw = {"workload": "coll-mix", "seed": 1, "trace": trace, "deterministic": True,
           "fingerprint": "0", "attempted": 4 * n_ops, "failed": failed,
           "peak_rss_mib": 900.0,
           "virt": {"makespan_ms": 25.0, "op_us": [float(i + 1) for i in range(n_ops)],
                    "call_us": {"allreduce": [5.0, 7.0, 6.0]}, "counts": counts},
           "calib": {name: 1.0 for name, _, _ in run.CALIBRATION},
           "reps": reps}
    if trace:
        raw["replay"] = {"mpc_compress_mbps": 800.0, "mpc_decompress_mbps": 900.0,
                         "zfp8_compress_mbps": 200.0, "zfp8_decompress_mbps": 300.0,
                         "solver_s": 0.0, "ok": True}
    return raw


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(run.percentile(xs, 0.5), 50.0)
        self.assertEqual(run.percentile(xs, 0.9), 90.0)
        self.assertEqual(run.percentile([3.0], 0.9), 3.0)
        self.assertEqual(run.percentile([2.0, 1.0], 0.5), 1.0)

    def test_samples_beyond(self):
        self.assertEqual(run.samples_beyond(100, 0.9), 10)
        self.assertEqual(run.samples_beyond(99, 0.9), 9)
        self.assertEqual(run.samples_beyond(1024, 0.9), 102)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile([float(i) for i in range(100)], 0.9), 89.0)
        with self.assertRaises(run.BenchError):
            run.tail_percentile([float(i) for i in range(99)], 0.9)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.percentile([], 0.5)


class MetricNames(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "mpi.reduce_scatter.virt_us_p50", "compress.zfp8.wall_mbps",
                     "a" * 64, "9lives"):
            self.assertEqual(run.validate_name(name), name)

    def test_invalid_names(self):
        for name in ("", "a b", "bad/name", "_hidden", ".dot", "a" * 65, "café"):
            with self.assertRaises(run.BenchError):
                run.validate_name(name)

    def test_every_table_name_is_valid_and_unique(self):
        names = [m[0] for m in run.END_TO_END + run.PER_LAYER]
        for name in names:
            run.validate_name(name)
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(run.PER_LAYER), 128)

    def test_tables_match_benchmark_json(self):
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class ResultObject(unittest.TestCase):
    def test_end_to_end_round_trip(self):
        result = run.reduce_raw(fake_raw(trace=0))
        line = json.dumps(result)
        self.assertEqual(json.loads(line), result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [m[0] for m in run.END_TO_END])
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["virt_op_us_p90"]["value"], 108.0)
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_floats_keep_all_digits(self):
        raw = fake_raw(trace=0)
        for rep in raw["reps"]:
            rep["run_s"] = 1.2345678901234567
        value = run.reduce_raw(raw)["metrics"]["run_wall_s"]["value"]
        self.assertEqual(json.loads(json.dumps(value)), 1.2345678901234567)

    def test_per_layer_round_trip(self):
        result = run.reduce_raw(fake_raw(trace=1))
        self.assertEqual(json.loads(json.dumps(result)), result)
        self.assertEqual(list(result["metrics"]), [m[0] for m in run.PER_LAYER])
        self.assertEqual(result["metrics"]["mpi.allreduce.calls"]["value"], 3)
        self.assertEqual(result["metrics"]["mpi.allreduce.virt_us_p50"]["value"], 6.0)
        self.assertEqual(result["metrics"]["mpi.bcast.calls"]["value"], 0)
        self.assertTrue(math.isclose(result["metrics"]["compress.wall_share"]["value"],
                                     (1 / 800 + 1 / 900 + 1 / 200 + 1 / 300) / 2.0))

    def test_failures_make_the_run_incorrect(self):
        result = run.reduce_raw(fake_raw(trace=0, failed=3))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 3)

    def test_divergent_repetitions_make_the_run_incorrect(self):
        raw = fake_raw(trace=0)
        raw["deterministic"] = False
        self.assertFalse(run.reduce_raw(raw)["correct"])

    def test_too_few_operations_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.reduce_raw(fake_raw(trace=0, n_ops=50))

    def test_counter_names_must_match_the_binary(self):
        for trace in (0, 1):
            raw = fake_raw(trace=trace)
            counts = raw["virt"]["counts"]
            counts["core.plan_hitz"] = counts.pop("core.plan_hits")
            with self.assertRaisesRegex(run.BenchError, "core.plan_hitz"):
                run.reduce_raw(raw)

    def test_missing_metric_is_an_error(self):
        raw = fake_raw(trace=1)
        del raw["calib"]["calib.ib_edr_4mib_us"]
        with self.assertRaises(run.BenchError):
            run.reduce_raw(raw)


if __name__ == "__main__":
    unittest.main()
