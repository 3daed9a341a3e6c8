"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import stats  # noqa: E402


def span(name, start, end, parent):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(10))
        self.assertEqual(stats.tail_percentile(11), 9)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(400), 97)
        self.assertEqual(stats.tail_percentile(1000), 99)

    def test_ten_samples_lie_beyond_the_chosen_percentile(self):
        for n in (11, 21, 42, 99, 264, 400, 601, 1000):
            values = list(range(1, n + 1))
            p = stats.tail_percentile(n)
            cut = stats.percentile(values, p)
            self.assertGreaterEqual(sum(1 for v in values if v > cut), 10, n)
            # One percentile higher leaves fewer than ten beyond.
            if p < 99:
                higher = stats.percentile(values, p + 1)
                self.assertLess(sum(1 for v in values if v > higher), 10, n)

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 100), 4)


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            span("root", 0, 100, None),
            span("sim", 10, 60, 0),
            span("workload", 15, 35, 1),
            span("image", 35, 55, 1),
            span("image.verify", 40, 45, 3),
        ]
        self.assertEqual(stats.self_times(spans), [50, 10, 20, 15, 5])

    def test_back_to_back_children(self):
        spans = [
            span("root", 0, 30, None),
            span("engine", 0, 10, 0),
            span("engine", 10, 20, 0),
            span("engine", 20, 30, 0),
        ]
        self.assertEqual(stats.self_times(spans), [0, 10, 10, 10])

    def test_child_outside_parent_is_rejected(self):
        with self.assertRaises(ValueError):
            stats.self_times([span("root", 0, 10, None), span("engine", 5, 11, 0)])

    def test_orphan_is_rejected(self):
        with self.assertRaises(ValueError):
            stats.self_times([span("root", 0, 10, None), span("engine", 1, 2, None)])
        with self.assertRaises(ValueError):
            stats.self_times([span("root", 0, 10, None), span("engine", 1, 2, 5)])

    def test_overlapping_siblings_cannot_go_negative(self):
        # Siblings that overlap (two threads under one parent) cover the
        # parent once, never twice.
        spans = [
            span("root", 0, 10, None),
            span("engine", 0, 8, 0),
            span("engine", 2, 10, 0),
        ]
        self.assertEqual(stats.self_times(spans)[0], 0)


class Conservation(unittest.TestCase):
    NAMES = {"sim": "sim.self_s", "workload": "workload.trace_s", "engine": "engine.replay_s"}

    def test_layers_plus_unattributed_equal_the_wall(self):
        spans = [
            span("root", 0, 1_000, None),
            span("sim", 100, 600, 0),
            span("workload", 100, 400, 1),
            span("engine", 600, 900, 0),
        ]
        out = stats.attribute(spans, self.NAMES)
        self.assertEqual(out["workload.trace_s"], 300e-9)
        self.assertEqual(out["sim.self_s"], 200e-9)
        self.assertEqual(out["engine.replay_s"], 300e-9)
        self.assertEqual(out["unattributed_s"], 200e-9)
        self.assertEqual(out["traced_wall_s"], 1_000e-9)

    def test_overlapping_siblings_break_conservation(self):
        spans = [
            span("root", 0, 10, None),
            span("engine", 0, 8, 0),
            span("engine", 2, 10, 0),
        ]
        with self.assertRaises(ValueError):
            stats.attribute(spans, self.NAMES)

    def test_unknown_span_name_is_rejected(self):
        with self.assertRaises(ValueError):
            stats.attribute([span("root", 0, 10, None), span("mystery", 1, 2, 0)], self.NAMES)


class ClosedLoop(unittest.TestCase):
    def test_refused_submit_is_failed_and_misses_the_limit(self):
        latencies = [10.0] * 15 + [None]
        out = stats.closed_loop(latencies)
        self.assertEqual(out["attempted"], 16)
        self.assertEqual(out["failed"], 1)
        self.assertEqual(out["p50"], 10.0)
        # The refusal sorts past every real latency: at the percentile
        # that reaches it, the tail is infinitely late.
        self.assertEqual(stats.percentile(latencies, 100), float("inf"))

    def test_tail_is_capped(self):
        self.assertEqual(stats.closed_loop([1.0] * 1000)["tail_pct"], stats.TAIL_CAP)
        self.assertEqual(stats.closed_loop([1.0] * 56)["tail_pct"], 82)

    def test_tail_mean_covers_the_samples_beyond_the_percentile(self):
        latencies = [float(v) for v in range(1, 101)]
        out = stats.closed_loop(latencies)
        self.assertEqual(out["tail_pct"], 90)
        self.assertEqual(out["tail_mean"], sum(range(91, 101)) / 10)
        # Sample order does not matter.
        self.assertEqual(stats.closed_loop(latencies[::-1])["tail_mean"], out["tail_mean"])

    def test_refusals_reach_the_tail(self):
        out = stats.closed_loop([5.0] * 20 + [None] * 10)
        self.assertEqual(out["tail_pct"], 66)
        self.assertEqual(out["tail_mean"], float("inf"))
        out = stats.closed_loop([5.0] * 40)
        self.assertEqual(out["tail_mean"], 5.0)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)


if __name__ == "__main__":
    unittest.main()
