"""Self-tests of the benchmark's own code (no build needed):

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import answers  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(list(range(200)))[0], 95.0)
        self.assertEqual(stats.tail_percentile(list(range(199)))[0], 90.0)
        self.assertEqual(stats.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail_percentile(list(range(10000)))[0], 99.9)
        self.assertEqual(stats.tail_percentile(list(range(20)))[0], 50.0)

    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(stats.tail_percentile(list(range(19))))

    def test_reports_sample_count_and_value(self):
        p, value, count = stats.tail_percentile([float(x) for x in range(101)])
        self.assertEqual((p, count), (90.0, 101))
        self.assertAlmostEqual(value, 90.0)

    def test_p95_only_with_enough_samples(self):
        self.assertIsNone(stats.percentile_if_supported(list(range(199)), 95))
        self.assertAlmostEqual(
            stats.percentile_if_supported(list(range(201)), 95), 190.0)


class ScalingExponent(unittest.TestCase):
    def test_linear_and_quadratic(self):
        ns = [4, 8, 12, 16]
        self.assertAlmostEqual(
            stats.scaling_exponent(ns, [0.5 * n for n in ns]), 1.0)
        self.assertAlmostEqual(
            stats.scaling_exponent(ns, [0.01 * n * n for n in ns]), 2.0)

    def test_fit_is_least_squares_over_logs(self):
        ns, walls = [2, 4, 8], [1.0, 3.0, 4.0]
        xs = [math.log(n) for n in ns]
        ys = [math.log(w) for w in walls]
        mx, my = sum(xs) / 3, sum(ys) / 3
        want = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs)
        self.assertAlmostEqual(stats.scaling_exponent(ns, walls), want)

    def test_needs_two_distinct_sizes(self):
        with self.assertRaises(ValueError):
            stats.scaling_exponent([16], [1.0])
        with self.assertRaises(ValueError):
            stats.scaling_exponent([16, 16], [1.0, 2.0])


class Ratios(unittest.TestCase):
    def test_printed_with_base(self):
        self.assertEqual(stats.format_ratio(0, 48), "0/48 = 0.0000")
        self.assertEqual(stats.format_ratio(12, 48), "12/48 = 0.2500")

    def test_zero_base_is_undefined_not_zero(self):
        self.assertIsNone(stats.ratio(0, 0))
        self.assertEqual(stats.format_ratio(0, 0), "0/0 = undefined")


class SelfTimes(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "parent": -1, "name": "bench::job", "start_ms": 0,
             "end_ms": 100},
            {"id": 1, "parent": 0, "name": "service::buildSnapshot",
             "start_ms": 0, "end_ms": 40},
            {"id": 2, "parent": 0, "name": "bench::obligation",
             "start_ms": 40, "end_ms": 90},
            {"id": 3, "parent": 2, "name": "symbolic::Checker::check",
             "start_ms": 50, "end_ms": 80},
        ]
        by_layer, wall = stats.layer_self_times(spans)
        self.assertEqual(wall, 100)
        self.assertEqual(by_layer, {"bench": 30, "service": 40,
                                    "symbolic": 30})
        self.assertEqual(sum(by_layer.values()), wall)


class KnownAnswers(unittest.TestCase):
    TEXT = ("MODULE a\nVAR x : boolean;\nSPEC x -> AX x\n\nSPEC AG x\n"
            "MODULE b\nVAR y : boolean;\nSPEC y -> AX y\n")

    def test_ids_come_from_the_text(self):
        self.assertEqual(answers.obligation_ids(self.TEXT, False),
                         ["a/a.SPEC1", "a/a.SPEC2", "b/b.SPEC1"])
        self.assertEqual(answers.obligation_ids(self.TEXT, True)[3:],
                         ["composed/a.SPEC1", "composed/a.SPEC2",
                          "composed/b.SPEC1"])

    def test_every_workload_model_has_answers(self):
        known = answers.load()
        for w in run.WORKLOADS.values():
            if w.get("serve"):
                keys = [answers.model_key("afs2", n, False)
                        for n in run.SERVE_AFS2]
                keys += [answers.model_key("ring", n, False)
                         for n in run.SERVE_RING]
            else:
                keys = [answers.model_key(w["family"], n, w["compose"])
                        for n in w["sizes"]]
            for key in keys:
                self.assertIn(key, known)
                self.assertTrue(known[key])

    def test_planted_wrong_answer_fails_the_run(self):
        expected = dict(answers.load()["afs2_16+compose"])
        verdicts = dict(expected)  # what a correct cmc run reports
        tally = run.Tally()
        tally.add("clean", expected, verdicts)
        self.assertTrue(run.result_line(tally, {})["correct"])

        planted = dict(expected)
        planted["composed/afs16server.SPEC1"] = "Fails"
        tally.add("planted", planted, verdicts)
        line = run.result_line(tally, {})
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)
        self.assertEqual(line["attempted"], 2 * len(expected))

    def test_missing_extra_and_undecided_ids_fail(self):
        expected = {"a/a.SPEC1": "Holds", "a/a.SPEC2": "Holds"}
        tally = run.Tally()
        tally.add("missing", expected, {"a/a.SPEC1": "Holds"})
        tally.add("undecided", expected,
                  {"a/a.SPEC1": "Holds", "a/a.SPEC2": "Timeout"})
        tally.add("extra", expected, dict(expected, **{"a/a.SPEC3": "Holds"}))
        self.assertEqual(tally.failed, 3)

    def test_killed_run_counts_every_obligation(self):
        tally = run.Tally()
        tally.fail("afs2-compose n=24", 144, "killed (wall limit 60 s)")
        line = run.result_line(tally, {})
        self.assertEqual((line["attempted"], line["failed"]), (144, 144))
        self.assertIn("afs2-compose n=24", tally.problems[0])


class MetricNames(unittest.TestCase):
    """The printed metrics are exactly the ones BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            cls.declared = json.load(f)

    def test_end_to_end(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.declared["end_to_end"]],
            list(run.END_TO_END))

    def test_per_layer(self):
        job = {k: 1 for k in (
            "modules", "bool_vars", "probe_aborted", "checks",
            "checks_partitioned", "trans_nodes", "nodes_allocated",
            "op_cache_hits", "op_cache_lookups", "unique_lookups",
            "peak_live_nodes", "gc_runs", "gc_reclaimed", "import_nodes",
            "composed_obligations", "global_fallbacks", "obligations",
            "attempts", "retries")}
        job["ms"] = {}
        spans = [{"id": 0, "parent": -1, "name": "bench::job",
                  "start_ms": 0.0, "end_ms": 1.0}]
        metrics, _, _, _ = run.layer_metrics([job], spans, 0.5)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.declared["per_layer"]],
            [(k, unit) for k, (_, unit) in metrics.items()])


class Limits(unittest.TestCase):
    def test_wall_limit_kills(self):
        o = procs.run([sys.executable, "-c", "import time; time.sleep(30)"],
                      procs.Limits(wall_s=0.3, rss_mb=1024))
        self.assertIn("wall limit", o.killed)
        self.assertLess(o.wall_s, 5)

    def test_memory_limit_kills(self):
        o = procs.run([sys.executable, "-c",
                       "import time; b = bytearray(300 << 20); time.sleep(30)"],
                      procs.Limits(wall_s=20, rss_mb=100))
        self.assertIn("memory limit", o.killed)

    def test_clean_exit_has_rusage(self):
        o = procs.run([sys.executable, "-c", "pass"],
                      procs.Limits(wall_s=20, rss_mb=1024))
        self.assertEqual((o.killed, o.returncode), ("", 0))
        self.assertGreater(o.peak_rss_mb, 0)


if __name__ == "__main__":
    unittest.main()
