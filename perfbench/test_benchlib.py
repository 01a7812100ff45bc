"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


class TailTest(unittest.TestCase):
    def test_needs_ten_beyond(self):
        self.assertIsNone(benchlib.tail(list(range(10))))
        value, pct, n = benchlib.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_hundred_samples_give_p90(self):
        value, pct, n = benchlib.tail([float(v) for v in range(1, 101)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))

    def test_exactly_ten_beyond_and_order_free(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        value, pct, n = benchlib.tail(values)
        self.assertEqual((value, pct, n), (5.0, 75.0, 40))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_failures_rank_slowest(self):
        values = [1.0] * 20 + [math.inf] * 10
        self.assertEqual(benchlib.tail(values)[0], 1.0)
        values.append(math.inf)
        self.assertEqual(benchlib.tail(values)[0], math.inf)


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(benchlib.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(benchlib.geomean([1.9] * 5), 1.9)
        self.assertAlmostEqual(benchlib.geomean([1.0, 10.0, 100.0]), 10.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            benchlib.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            benchlib.geomean([])


def span(name, start, end, parent=-1):
    return {"name": name, "track": "t", "start_us": start * 1e6,
            "end_us": None if end is None else end * 1e6, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [span("root", 0, 10), span("a", 1, 4, 0), span("b", 5, 6, 0),
                 span("a.x", 2, 3, 1)]
        selfs = benchlib.self_times(spans)
        for got, want in zip(selfs, [6.0, 2.0, 1.0, 1.0]):
            self.assertAlmostEqual(got, want)

    def test_concurrent_children_count_once(self):
        spans = [span("root", 0, 10), span("w", 0, 6, 0), span("w", 2, 8, 0),
                 span("late", 9, 12, 0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 1.0)

    def test_open_span_and_layer_sum(self):
        spans = [span("setup", 0, None), span("gen", 1, 3, 0),
                 span("gen", 4, 5, 0), span("save", 5, 7, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 0.0)
        self.assertAlmostEqual(
            benchlib.layer_self_seconds(spans, {"gen"}), 3.0)
        self.assertAlmostEqual(
            benchlib.layer_self_seconds(spans, {"gen"}, first=2), 1.0)


SOURCES = {d: list(range(3, 500)) for d in benchlib.MIX_DATASETS}


class MixPlanTest(unittest.TestCase):
    def plan(self, seed, clients=4, rounds=2):
        return benchlib.MixPlan(seed, SOURCES, clients, rounds).entries

    def test_reproducible_per_seed(self):
        self.assertEqual(json.dumps(self.plan(7)), json.dumps(self.plan(7)))
        self.assertNotEqual(json.dumps(self.plan(7)),
                            json.dumps(self.plan(8)))

    def test_hit_share_and_rounds(self):
        for seed in range(5):
            entries = self.plan(seed, clients=3, rounds=3)
            misses = [v for kind, v in entries if kind == "miss"]
            hits = [v for kind, v in entries if kind == "hit"]
            self.assertEqual(len(misses), 3 * benchlib.MIX_COMBOS)
            self.assertAlmostEqual(len(hits) / len(entries),
                                   benchlib.HIT_SHARE, delta=0.02)
            combos = {(s["system"], s["algorithm"], s["dataset"])
                      for s in misses}
            self.assertEqual(len(combos), benchlib.MIX_COMBOS)

    def test_misses_unique_and_first_jobs_are_misses(self):
        entries = self.plan(3)
        self.assertTrue(all(kind == "miss" for kind, _ in entries[:4]))
        misses = [json.dumps(v, sort_keys=True) for kind, v in entries
                  if kind == "miss"]
        self.assertEqual(len(misses), len(set(misses)))

    def test_resubmit_repeats_a_finished_job(self):
        finished = [{"source": i} for i in range(3)]
        picks = [v for kind, v in self.plan(3) if kind == "hit"]
        chosen = [benchlib.MixPlan.resubmit(p, finished) for p in picks]
        self.assertTrue(all(c in finished for c in chosen))
        self.assertGreater(len({c["source"] for c in chosen}), 1)


class GoldenTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "golden_matrix.json")) as f:
            self.golden = json.load(f)["cells"]
        self.records = []
        for cell, row in self.golden.items():
            system, algorithm, dataset = cell.split("/")
            self.records.append(dict(row, system=system, algorithm=algorithm,
                                     dataset=dataset, wallSimSeconds=1.0))

    def test_committed_table_covers_the_matrix(self):
        self.assertEqual(len(self.golden), 90)
        self.assertEqual(benchlib.golden_diff(self.golden, self.records), [])

    def test_one_cycle_change_is_caught(self):
        rec = self.records[17]
        rec["seconds"] = (round(rec["seconds"] * 1e9) + 1) * 1e-9
        diff = benchlib.golden_diff(self.golden, self.records)
        self.assertEqual(len(diff), 1)
        self.assertIn("seconds", diff[0])

    def test_missing_and_extra_cells(self):
        extra = dict(self.records.pop(), dataset="XX")
        self.records.append(extra)
        diff = benchlib.golden_diff(self.golden, self.records)
        self.assertEqual(len(diff), 2)


if __name__ == "__main__":
    unittest.main()
