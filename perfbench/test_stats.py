"""Self-tests for the benchmark's statistics, spans and computed counts.

    python3 perfbench/test_stats.py        (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import stats  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_permille(99))  # p90 would leave 9.9 beyond
        self.assertEqual(stats.tail_permille(100), 900)
        self.assertEqual(stats.tail_permille(999), 900)  # p99 would leave 9.99
        self.assertEqual(stats.tail_permille(1000), 990)
        self.assertEqual(stats.tail_permille(10_000), 999)

    def test_summary_reports_count_median_and_tail(self):
        small = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual((small["n"], small["p50"], small["tail"]), (3, 2.0, None))
        samples = [float(i) for i in range(1, 101)]
        full = stats.summarize(samples)
        self.assertEqual(full["n"], 100)
        self.assertEqual(full["p50"], 50.5)
        # nearest rank: the 90th smallest of 1..100, with 10 samples beyond it
        self.assertEqual(full["tail"], {"p": 90.0, "value": 90.0})
        self.assertEqual(sum(s > full["tail"]["value"] for s in samples), 10)

    def test_nearest_rank(self):
        self.assertEqual(stats.nearest_rank([5, 1, 4, 2, 3], 500), 3)
        self.assertEqual(stats.nearest_rank([5, 1, 4, 2, 3], 1000), 5)
        self.assertEqual(stats.nearest_rank([7], 990), 7)

    def test_quartile_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        # statistics.quantiles (exclusive): Q1 = 2, median 4, Q3 = 6
        self.assertEqual(stats.quartile_spread(values), 1.0)


class SelfTime(unittest.TestCase):
    def test_children_overlap_and_overhang(self):
        children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0)]
        # covered: [1, 5] + [7, 8] + [9, 10] clipped to the parent = 6
        self.assertEqual(stats.self_time(0.0, 10.0, children), 4.0)

    def test_no_children(self):
        self.assertEqual(stats.self_time(2.0, 4.5, []), 2.5)

    def test_tracer_records_parents(self):
        tracer = Tracer()
        tracer.run_id = "r"
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        outer, first, second = tracer.spans
        self.assertEqual((outer.parent, first.parent, second.parent), (None, 0, 0))
        self.assertEqual([s.run_id for s in tracer.spans], ["r"] * 3)
        kids = tracer.children("r")[0]
        own = stats.self_time(outer.start, outer.end, [(c.start, c.end) for c in kids])
        self.assertAlmostEqual(own, outer.duration - first.duration - second.duration,
                               places=12)

    def test_null_tracer_wraps_nothing(self):
        inner = object()
        self.assertIs(NullTracer().wrap(inner, "m", "x"), inner)


class MmdCounts(unittest.TestCase):
    def test_unequal_sizes(self):
        # 2 vs 3 points, 2 repetitions, 5 distinct pooled points:
        # kernel 3 * 2 * 3^2 = 54, pdist 5 * 4 / 2 = 10
        got = stats.mmd_counts(2, 3, 2, 5, median_heuristic=True)
        self.assertEqual(got, {"kernel_entries": 64, "useful_entries": 10,
                               "temp_bytes": 80})

    def test_equal_sizes_score_once(self):
        # 4 vs 4: one scoring whatever the repetitions, 3 * 16 = 48, pdist 28
        got = stats.mmd_counts(4, 4, 5, 8, median_heuristic=True)
        self.assertEqual(got, {"kernel_entries": 76, "useful_entries": 28,
                               "temp_bytes": 224})

    def test_fixed_bandwidth_skips_pdist(self):
        got = stats.mmd_counts(3, 5, 10, 5, median_heuristic=False)
        self.assertEqual(got, {"kernel_entries": 750, "useful_entries": 10,
                               "temp_bytes": 200})

    def test_saturation_prefix_repeats_points(self):
        # current (3 points) is a prefix of combined (4 points): 4 distinct
        got = stats.mmd_counts(3, 4, 1, 4, median_heuristic=True)
        self.assertEqual(got["useful_entries"], 6)
        self.assertEqual(got["kernel_entries"], 3 * 16 + 21)


class TimedMmd(unittest.TestCase):
    def test_split_matches_mmd_calculator_and_counts(self):
        import numpy as np
        from divsat import EmbeddingSet, KernelConfig, mmd_calculator

        import workloads

        rng = np.random.default_rng(0)
        a = EmbeddingSet.from_array(rng.standard_normal((6, 3)), id_prefix="a")
        b = EmbeddingSet.from_array(rng.standard_normal((9, 3)), id_prefix="b")
        tracer = Tracer()
        tracer.run_id = "t"
        calls = []
        got = workloads.timed_mmd(tracer, a, b, KernelConfig(), 4, 11, calls)
        self.assertEqual(got, mmd_calculator(a, b, KernelConfig(), repetitions=4, seed=11))
        self.assertEqual([s.name for s in tracer.spans],
                         ["mmd.fn", "mmd.bandwidth", "mmd.resample"])
        self.assertNotIn("t", tracer.counts)  # counted after the timed work
        workloads.add_mmd_counts(tracer, calls)
        counts = tracer.counts["t"]
        self.assertEqual(counts["mmd.kernel_entries"], 3 * 4 * 81 + 15 * 14 // 2)
        self.assertEqual(counts["mmd.useful_entries"], 15 * 14 // 2)


class BenchmarkSpec(unittest.TestCase):
    def test_metric_names_match_run_py(self):
        from run import END_TO_END, PER_LAYER

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)


if __name__ == "__main__":
    unittest.main()
