"""Unit tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = stats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_eleven_samples_give_the_minimum(self):
        value, pct, n = stats.tail([5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11])
        self.assertEqual((value, n), (1, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(stats.tail([3.0]), (3.0, 100.0, 1))
        self.assertEqual(stats.tail([4, 1, 2]), (4, 100.0, 3))

    def test_order_does_not_matter(self):
        values = [((i * 37) % 101) / 7 for i in range(250)]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class WindowedTail(unittest.TestCase):
    def test_one_window_is_the_plain_tail(self):
        values = [float(v) for v in range(150)]
        value, pct, n, windows = stats.windowed_tail(values, 200)
        self.assertEqual((value, pct, n), stats.tail(values))
        self.assertEqual(windows, 1)

    def test_median_of_window_tails(self):
        # Three windows of 100: tails 89, 189 and 289 (the remainder of
        # 20 samples joins the last window, whose tail becomes 309).
        values = [float(v) for v in range(320)]
        value, pct, n, windows = stats.windowed_tail(values, 100)
        self.assertEqual((n, windows), (320, 3))
        self.assertEqual(value, 189.0)
        self.assertAlmostEqual(pct, 100.0 * 110 / 120)

    def test_one_slow_window_does_not_move_it(self):
        steady = [1.0] * 200 + [1.0] * 200 + [1.0] * 200
        spiky = [1.0] * 200 + [50.0] * 20 + [1.0] * 180 + [1.0] * 200
        self.assertEqual(stats.windowed_tail(steady, 200)[0], stats.windowed_tail(spiky, 200)[0])


class Names(unittest.TestCase):
    def test_valid_metric_names(self):
        for name in ("setup_s", "cache.footprint.build_ms", "serve.run_spec_ms.memo",
                     "dram.offchip.ns_per_access", "9lives", "a-b"):
            self.assertTrue(stats.valid_name(name), name)

    def test_invalid_metric_names(self):
        for name in ("", "_lead", ".lead", "has space", "per/sec", "x" * 65, "é", None):
            self.assertFalse(stats.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "Minst/s", "%", "frac"):
            self.assertTrue(stats.valid_unit(unit), unit)
        for unit in ("", "two words", "x" * 17):
            self.assertFalse(stats.valid_unit(unit), unit)

    def test_benchmark_json_names(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        seen = set()
        for group in ("workloads", "end_to_end", "per_layer"):
            for item in spec[group]:
                self.assertTrue(stats.valid_name(item["name"]), item["name"])
                self.assertNotIn(item["name"], seen)
                seen.add(item["name"])
                if "unit" in item:
                    self.assertTrue(stats.valid_unit(item["unit"]), item["unit"])


class Digest(unittest.TestCase):
    def test_key_order_and_float_text_do_not_matter(self):
        a = [{"k": "x", "v": {"b": 1, "a": 0.1}}]
        b = [json.loads('{"v": {"a": 1e-1, "b": 1}, "k": "x"}')]
        self.assertEqual(stats.digest(a), stats.digest(b))

    def test_any_changed_statistic_changes_the_digest(self):
        base = [{"k": "p", "v": {"evictions": 10, "ipc": 1.5}}]
        self.assertNotEqual(stats.digest(base), stats.digest([{"k": "p", "v": {"evictions": 11, "ipc": 1.5}}]))
        self.assertNotEqual(stats.digest(base), stats.digest([{"k": "p", "v": {"evictions": 10, "ipc": 1.5000001}}]))

    def test_record_order_matters(self):
        self.assertNotEqual(stats.digest([1, 2]), stats.digest([2, 1]))

    def test_round_trip_through_text(self):
        records = [{"k": str(i), "v": i / 3} for i in range(20)]
        again = [json.loads(json.dumps(r)) for r in records]
        self.assertEqual(stats.digest(records), stats.digest(again))


class SelfTime(unittest.TestCase):
    def span(self, id, parent, start, end, layer="l"):
        return {"id": id, "parent": parent, "start_ns": start, "end_ns": end, "layer": layer}

    def test_children_are_subtracted(self):
        spans = [self.span(1, 0, 0, 100, "a"), self.span(2, 1, 10, 30, "b"), self.span(3, 1, 50, 60, "b")]
        self.assertEqual(stats.self_times(spans), {1: 70, 2: 20, 3: 10})
        self.assertEqual(stats.layer_self_times(spans), {"a": 70, "b": 30})

    def test_overlapping_children_count_once(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 0, 60), self.span(3, 1, 40, 90)]
        self.assertEqual(stats.self_times(spans)[1], 10)

    def test_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([10] * 10), 0.0)
        self.assertGreater(stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 0.5)


class Client(unittest.TestCase):
    def test_split_lines_keeps_newlines_and_stops_at_end(self):
        buf = bytearray(b'a\nbb\n{"type": "summary"}\nunused buffer')
        end = buf.index(b"unused")
        self.assertEqual(workloads.split_lines(buf, end), [b"a\n", b"bb\n", b'{"type": "summary"}\n'])

    def test_split_lines_keeps_an_unterminated_last_line(self):
        self.assertEqual(workloads.split_lines(bytearray(b"a\nb"), 3), [b"a\n", b"b"])


class ObsOverhead(unittest.TestCase):
    def test_traced_wall_over_the_mean_of_both_untraced_walls(self):
        counts = {"untraced_first_s": 9.0, "obs_traced_s": 11.0, "untraced_last_s": 11.0}
        self.assertAlmostEqual(layers.obs_overhead(counts), 0.1)


if __name__ == "__main__":
    unittest.main()
