#!/usr/bin/env python3
"""Unit checks for tools/perfbench_ab.py's pure functions: median,
quartiles, ratio, verdict, pair wins, the claim rule, the unresolved
verdict and the parsing of run.py's output.

Run with `python3 tools/test_perfbench_ab.py`.
"""

import importlib.util
import os
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "perfbench_ab.py")
_spec = importlib.util.spec_from_file_location("perfbench_ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


class Median(unittest.TestCase):
    def test_odd_count_is_middle_value(self):
        self.assertEqual(ab.median([5, 1, 3]), 3)

    def test_even_count_is_mean_of_middle_two(self):
        self.assertEqual(ab.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            ab.median([])

    def test_quartiles_split_halves(self):
        self.assertEqual(ab.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))
        self.assertEqual(ab.quartiles([1, 2, 3, 4]), (1.5, 2.5, 3.5))
        self.assertEqual(ab.quartiles([7]), (7, 7, 7))


class Ratio(unittest.TestCase):
    def test_change_over_parent(self):
        self.assertAlmostEqual(ab.ratio(150.0, 100.0), 1.5)

    def test_zero_parent_has_no_ratio(self):
        self.assertIsNone(ab.ratio(1.0, 0.0))


class Verdict(unittest.TestCase):
    def test_higher_is_better(self):
        self.assertEqual(ab.verdict(100, 70, "higher", 0.25), "worse")
        self.assertEqual(ab.verdict(100, 80, "higher", 0.25), "same")
        self.assertEqual(ab.verdict(100, 130, "higher", 0.25), "better")

    def test_lower_is_better(self):
        self.assertEqual(ab.verdict(10.0, 11.5, "lower", 0.1), "worse")
        self.assertEqual(ab.verdict(10.0, 10.5, "lower", 0.1), "same")
        self.assertEqual(ab.verdict(10.0, 8.0, "lower", 0.1), "better")

    def test_bound_is_exclusive(self):
        self.assertEqual(ab.verdict(100, 75, "higher", 0.25), "same")
        self.assertEqual(ab.verdict(4.0, 5.0, "lower", 0.25), "same")

    def test_zero_parent(self):
        self.assertEqual(ab.verdict(0, 0, "lower", 0.1), "same")
        self.assertEqual(ab.verdict(0, 1, "lower", 0.1), "worse")
        self.assertEqual(ab.verdict(0, 1, "higher", 0.1), "better")

    def test_unknown_direction_is_an_error(self):
        with self.assertRaises(ValueError):
            ab.verdict(1, 1, "sideways", 0.1)


class ParseRun(unittest.TestCase):
    OUT = "\n".join([
        "# perfbench paper-saturated seed=1 untraced (end-to-end)",
        '  cycles_per_s  1000 cycles/s',
        'simulated {"patterns": "16", "report_digest": "abc"}',
        'notes {"repetitions": "2"}',
        '{"correct": true, "attempted": 2, "failed": 0, "metrics": '
        '{"cycles_per_s": {"value": 1000.0, "unit": "cycles/s"}}}',
    ])

    def test_last_line_and_simulated_block(self):
        doc, simulated = ab.parse_run(self.OUT)
        self.assertTrue(doc["correct"])
        self.assertEqual(doc["metrics"]["cycles_per_s"]["value"], 1000.0)
        self.assertEqual(ab.digests(simulated), {"report_digest": "abc"})

    def test_empty_output_is_an_error(self):
        with self.assertRaises(ValueError):
            ab.parse_run("\n\n")

    def test_summary_rows_carry_verdicts(self):
        spec = [{"name": "cycles_per_s", "unit": "cycles/s",
                 "better": "higher", "bound": 0.25},
                {"name": "router.step_s", "unit": "s", "better": "lower"}]
        parent = [{"metrics": {"cycles_per_s": v, "router.step_s": 1.0}}
                  for v in (100, 110, 90)]
        change = [{"metrics": {"cycles_per_s": v, "router.step_s": 0.5}}
                  for v in (140, 150, 130)]
        rows = ab.summarize(spec, parent, change)
        self.assertEqual(rows[0]["verdict"], "better")
        self.assertAlmostEqual(rows[0]["ratio"], 1.4)
        self.assertNotIn("verdict", rows[1])  # per-layer: no bound
        self.assertAlmostEqual(rows[1]["ratio"], 0.5)


class PairWins(unittest.TestCase):
    def test_direction_and_ties(self):
        parent = [100, 100, 100, 100]
        change = [110, 90, 100, 120]
        self.assertEqual(ab.pair_wins(parent, change, "higher"), (2, 1))
        self.assertEqual(ab.pair_wins(parent, change, "lower"), (1, 2))

    def test_unaligned_pairs_are_an_error(self):
        with self.assertRaises(ValueError):
            ab.pair_wins([1, 2], [1], "higher")


class Claim(unittest.TestCase):
    PARENT = [380, 382, 376, 390, 384, 370, 395, 381, 383, 379]

    def test_nine_of_ten_and_gap_beyond_iqr_holds(self):
        change = [445, 440, 450, 430, 448, 446, 380, 444, 452, 441]
        c = ab.claim_check(self.PARENT, change, "higher")
        self.assertEqual((c["wins"], c["losses"], c["pairs"]), (9, 1, 10))
        self.assertTrue(c["won_pairs"])
        self.assertTrue(c["gap_exceeds_iqr"])
        self.assertTrue(c["holds"])

    def test_eight_of_ten_fails(self):
        change = [445, 440, 450, 430, 448, 446, 380, 444, 370, 441]
        c = ab.claim_check(self.PARENT, change, "higher")
        self.assertEqual(c["wins"], 8)
        self.assertFalse(c["won_pairs"])
        self.assertFalse(c["holds"])

    def test_gap_inside_parent_iqr_fails(self):
        # Every pair won, but by less than the parent's own spread.
        change = [v + 1 for v in self.PARENT]
        c = ab.claim_check(self.PARENT, change, "higher")
        self.assertEqual(c["wins"], 10)
        self.assertFalse(c["gap_exceeds_iqr"])
        self.assertFalse(c["holds"])

    def test_lower_is_better(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0]
        change = [8.0, 8.1, 7.9, 8.2, 8.0]
        self.assertTrue(ab.claim_check(parent, change, "lower")["holds"])
        self.assertFalse(ab.claim_check(change, parent, "lower")["holds"])

    def test_parse_claim(self):
        self.assertEqual(ab.parse_claim("cycles_per_s:mesh64-tiled"),
                         ("cycles_per_s", "mesh64-tiled"))
        for bad in ("cycles_per_s", ":mesh64-tiled", "cycles_per_s:"):
            with self.assertRaises(ValueError):
                ab.parse_claim(bad)


class Unresolved(unittest.TestCase):
    SPEC = [{"name": "setup_s", "unit": "s", "better": "lower",
             "bound": 0.25}]

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        parent = [{"metrics": {"setup_s": v}} for v in (1.0, 3.0, 1.1, 2.9)]
        change = [{"metrics": {"setup_s": v}} for v in (3.0, 3.1, 2.9, 3.0)]
        row = ab.summarize(self.SPEC, parent, change)[0]
        self.assertGreater(ab.spread([1.0, 3.0, 1.1, 2.9]), 0.25)
        self.assertEqual(row["verdict"], "unresolved")

    def test_tight_parent_keeps_the_verdict(self):
        parent = [{"metrics": {"setup_s": v}} for v in (1.0, 1.02, 0.98)]
        change = [{"metrics": {"setup_s": v}} for v in (2.0, 2.0, 2.0)]
        row = ab.summarize(self.SPEC, parent, change)[0]
        self.assertEqual(row["verdict"], "worse")
        self.assertEqual(row["wins"], (0, 3))

    def test_zero_median_has_no_spread(self):
        self.assertIsNone(ab.spread([0, 0, 0]))


if __name__ == "__main__":
    unittest.main()
