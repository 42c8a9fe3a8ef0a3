#!/usr/bin/env python3
"""Self-tests for the benchmark's own code: python3 perfbench/selftest.py

They need neither a build nor a server; they exercise run.py's
percentile rule, metric names, METRICS parsing, op-stream generation,
process clean-up and the guard against root BENCH_*.json files.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(run.percentile(list(range(19)), 0.50))
        self.assertEqual(run.percentile(list(range(20)), 0.50), 9)
        self.assertIsNone(run.percentile([], 0.50))

    def test_nearest_rank_ignores_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(run.percentile(values, 0.5), 3.0)

    def test_class_summary_reports_count(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "samples_w.txt"), "w") as f:
                for i in range(25):
                    f.write("0 read ok %d 500 %d\n" % (1000 * (i + 1), 80000 * (i + 1)))
                f.write("1 write err:exec 10 10 1000000\n")
                f.write("1 write timeout 10 10 2000000\n")
            with open(os.path.join(d, "window_w.txt"), "w") as f:
                f.write("elapsed_s 2.0\n")
            w = run.window_metrics([d], "w", [5, 1])
        self.assertEqual(w["classes"]["read"]["n"], 25)
        self.assertEqual(w["classes"]["read"]["p50_ms"], 13.0)
        self.assertIsNone(w["classes"]["read"]["p99_ms"])
        self.assertEqual(w["classes"]["write"]["n"], 0)
        self.assertEqual(w["classes"]["write"]["attempted"], 2)
        self.assertEqual((w["attempted"], w["failed"]), (27, 2))
        self.assertEqual(w["outcomes"], {"ok": 25, "err:exec": 1, "timeout": 1})
        # 5 requests per 0.4 s block on connection 0; none completed on 1
        self.assertAlmostEqual(w["throughput_rps"], 12.5)

    def test_deployments_pooled(self):
        # two deployments: one block of 2 requests at 10/s, two at 20/s
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for d, ends, catchup in ((a, [1e5, 2e5], 3.0), (b, [5e4, 1e5, 1.5e5, 2e5], 5.0)):
                with open(os.path.join(d, "samples_w.txt"), "w") as f:
                    for i, end in enumerate(ends):
                        f.write("0 read ok %d 10 %d\n" % (1000 * (i + 1), end))
                with open(os.path.join(d, "window_w.txt"), "w") as f:
                    f.write("elapsed_s 0.2\nrepl_catchup_ms %g\n" % catchup)
            w = run.window_metrics([a, b], "w", [2])
        self.assertEqual(w["attempted"], 6)
        self.assertAlmostEqual(w["elapsed_s"], 0.4)
        self.assertAlmostEqual(w["throughput_rps"], 20.0)
        self.assertEqual(w["repl_catchup_ms"], 4.0)

    def test_block_rates(self):
        samples = [(0, "read", "ok", 1.0, 1.0, 1e5 * (i + 1)) for i in range(10)]
        samples[3] = (0, "read", "transport", 1.0, 1.0, 4e5)
        self.assertEqual(run.block_rates(samples, 0, 4), [7.5, 10.0])
        self.assertEqual(run.block_rates(samples, 1, 4), [])


class MetricNames(unittest.TestCase):
    def test_charset_units_and_uniqueness(self):
        names = [n for n, _ in run.END_TO_END] + [n for n, _, _ in run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        for _, unit in run.END_TO_END:
            self.assertRegex(unit, run.UNIT_RE)
        for _, unit, better in run.PER_LAYER:
            self.assertRegex(unit, run.UNIT_RE)
            self.assertIn(better, ("lower", "higher"))

    def test_rejects_bad_names(self):
        for bad in ["", "_x", "a b", "a/b", "x" * 65, "é"]:
            self.assertNotRegex(bad, run.NAME_RE)

    def test_benchmark_json_matches(self):
        path = os.path.join(os.path.dirname(run.__file__), "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


BEFORE = """\
# HELP expirel_request_stage_duration_seconds Stage time.
# TYPE expirel_request_stage_duration_seconds histogram
expirel_request_stage_duration_seconds_bucket{stage="parse",le="5e-05"} 6
expirel_request_stage_duration_seconds_sum{stage="parse"} 7e-05
expirel_request_stage_duration_seconds_count{stage="parse"} 6
expirel_eval_operator_duration_seconds_sum{operator="index-scan"} 9e-06
expirel_eval_operator_duration_seconds_count{operator="index-scan"} 1
expirel_requests_total 7
"""

AFTER = """\
expirel_request_stage_duration_seconds_bucket{stage="parse",le="5e-05"} 16
expirel_request_stage_duration_seconds_sum{stage="parse"} 0.00017
expirel_request_stage_duration_seconds_count{stage="parse"} 16
expirel_request_stage_duration_seconds_sum{stage="eval"} 0.5
expirel_request_stage_duration_seconds_count{stage="eval"} 2
expirel_eval_operator_duration_seconds_sum{operator="index-scan"} 9e-06
expirel_eval_operator_duration_seconds_count{operator="index-scan"} 1
expirel_build_info{version="0.10.0",wire_version="8"} 1
expirel_requests_total 27
weird{label="a \\"quoted\\" value"} 3
"""


class MetricsDiff(unittest.TestCase):
    def setUp(self):
        self.diff = run.diff_metrics(run.parse_prometheus(BEFORE),
                                     run.parse_prometheus(AFTER))

    def test_histogram_sum_and_count(self):
        s, c = run.histogram(self.diff, "expirel_request_stage_duration_seconds",
                             stage="parse")
        self.assertAlmostEqual(s, 0.0001)
        self.assertEqual(c, 10)

    def test_series_new_in_window(self):
        self.assertEqual(run.histogram(self.diff, "expirel_request_stage_duration_seconds",
                                       stage="eval"), (0.5, 2))

    def test_unchanged_and_absent(self):
        self.assertEqual(run.histogram(self.diff, "expirel_eval_operator_duration_seconds",
                                       operator="index-scan"), (0.0, 0.0))
        self.assertEqual(run.histogram(self.diff, "expirel_eval_operator_duration_seconds",
                                       operator="hash-join"), (0.0, 0.0))

    def test_counters_and_labels(self):
        self.assertEqual(run.counter(self.diff, "expirel_requests_total"), 20)
        self.assertEqual(run.counter(self.diff, "weird", label='a \\"quoted\\" value'), 3)
        self.assertEqual(run.counter(self.diff, "expirel_build_info",
                                     version="0.10.0", wire_version="8"), 1)


class OpStreams(unittest.TestCase):
    def test_same_seed_same_statements(self):
        for name in run.WORKLOADS:
            self.assertEqual(run.generate(name, 7), run.generate(name, 7), name)
            self.assertNotEqual(run.generate(name, 7)["ops"], run.generate(name, 8)["ops"],
                                name)

    def test_every_block_has_the_exact_mix(self):
        for name in run.WORKLOADS:
            spec = run.generate(name, 3)
            for ops, size in zip(spec["ops"], spec["blocks"]):
                self.assertEqual(len(ops) % size, 0, name)
                first = Counter(cls for cls, _ in ops[:size])
                for b in range(0, len(ops), size):
                    self.assertEqual(Counter(cls for cls, _ in ops[b:b + size]), first, name)

    def test_statements_are_single_lines(self):
        for name in run.WORKLOADS:
            spec = run.generate(name, 5)
            lines = spec["schema"] + spec["preload"] + spec["post"] + spec["gate"] + [
                sql for ops in spec["ops"] for _, sql in ops]
            for line in lines:
                self.assertNotIn("\n", line)
            for ops in spec["ops"]:
                for cls, sql in ops:
                    self.assertIn(cls, run.CLASSES)
                    self.assertNotIn("\t", sql)


class CleanUp(unittest.TestCase):
    def test_processes_and_scratch_removed_on_failure(self):
        with tempfile.TemporaryDirectory() as base:
            scratch = os.path.join(base, "run-x")
            procs = []
            with self.assertRaises(RuntimeError):
                with run.Processes(scratch) as p:
                    os.makedirs(os.path.join(scratch, "data"))
                    for _ in range(2):
                        procs.append(p.spawn(["sleep", "60"], os.path.join(scratch, "log")))
                    raise RuntimeError("boom")
            self.assertTrue(all(proc.poll() is not None for proc in procs))
            self.assertFalse(os.path.exists(scratch))

    def test_server_that_never_starts(self):
        with tempfile.TemporaryDirectory() as base:
            with run.Processes(os.path.join(base, "s")) as p:
                log = os.path.join(base, "s", "log")
                proc = p.spawn(["sleep", "60"], log)
                with self.assertRaises(RuntimeError):
                    run.wait_for(log, r"listening on (\d+)", proc, limit=0.2)
            self.assertIsNotNone(proc.poll())

    def test_not_a_checkout_exits_without_result(self):
        with tempfile.TemporaryDirectory() as d:
            out = subprocess.run([sys.executable, os.path.abspath(run.__file__),
                                  "--workload", "sessions", "--seed", "1", "--seconds", "1"],
                                 cwd=d, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class RootBenchFiles(unittest.TestCase):
    def test_guard_sees_new_and_rewritten_files(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "BENCH_old.json"), "w") as f:
                f.write("{}")
            before = run.root_bench_files(d)
            self.assertEqual(run.root_bench_files(d), before)
            with open(os.path.join(d, "BENCH_new.json"), "w") as f:
                f.write("{}")
            self.assertNotEqual(run.root_bench_files(d), before)
            os.remove(os.path.join(d, "BENCH_new.json"))
            with open(os.path.join(d, "BENCH_old.json"), "w") as f:
                f.write('{"x": 1}')
            self.assertNotEqual(run.root_bench_files(d), before)


if __name__ == "__main__":
    unittest.main()
