"""Tests of the round benchmark's summary maths on synthetic inputs.

    python3 roundbench/test_summary.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summary  # noqa: E402


def span(name, start, end, parent=-1, rnd=0, tid=0, usage=(None, None, None)):
    return [name, rnd, parent, tid, start, end, *usage]


class TailPercentile(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        value, pct, n = summary.tail_percentile(samples)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(n, 100)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_order_does_not_matter(self):
        samples = [5, 1, 4, 2, 3] * 6  # 30 samples
        value, pct, _ = summary.tail_percentile(samples)
        # The 20th of 30 ranked samples: ten ranks lie beyond it (ties
        # share a value, so fewer values may exceed it).
        self.assertEqual(sorted(samples)[19], value)
        self.assertAlmostEqual(pct, 100 * 20 / 30)

    def test_too_few_samples_fall_back_to_median(self):
        value, pct, n = summary.tail_percentile([3, 1, 2, 4])
        self.assertEqual((value, pct, n), (2.5, 50.0, 4))
        # 19 and 20 samples: ten beyond would put the tail below the median.
        value, pct, n = summary.tail_percentile(list(range(19)))
        self.assertEqual((value, pct, n), (9, 50.0, 19))
        value, pct, n = summary.tail_percentile(list(range(20)))
        self.assertEqual((value, pct, n), (9.5, 50.0, 20))

    def test_twenty_one_samples_reach_the_median(self):
        value, pct, _ = summary.tail_percentile(list(range(21)))
        self.assertEqual(value, 10)
        self.assertAlmostEqual(pct, 100 * 11 / 21)


class SelfTime(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        self.assertEqual(summary.union_length([(0, 10), (5, 15), (20, 30)], 0, 100), 25)
        self.assertEqual(summary.union_length([(0, 10), (5, 15)], 8, 12), 4)
        self.assertEqual(summary.union_length([(3, 3), (7, 5)], 0, 10), 0)
        self.assertEqual(summary.union_length([], 0, 10), 0)

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            span("fl.round", 0, 100),
            span("fl.train_phase", 10, 60, parent=0),
            span("fl.client_train", 10, 50, parent=1, tid=1),
            span("fl.client_train", 20, 60, parent=1, tid=2),  # overlaps
            span("defense.aggregate", 70, 90, parent=0),
        ]
        kids = summary.children_of(spans)
        self.assertEqual(summary.self_time(spans, 0, kids), 100 - 50 - 20)
        self.assertEqual(summary.self_time(spans, 1, kids), 0)
        self.assertEqual(summary.self_time(spans, 2, kids), 40)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span("a", 0, 10), span("b", 5, 20, parent=0)]
        self.assertEqual(summary.self_time(spans, 0, summary.children_of(spans)), 5)


class PoolIdle(unittest.TestCase):
    def test_fully_busy(self):
        # 4 workers + caller = 5 threads, 10 tasks of 50 over a 100 wall.
        self.assertAlmostEqual(summary.pool_idle_frac([(100, [50] * 10)], 4), 0.0)

    def test_fewer_tasks_than_threads(self):
        # 2 tasks run on 2 threads; one finishes halfway.
        self.assertAlmostEqual(summary.pool_idle_frac([(100, [100, 50])], 4), 0.25)

    def test_phases_are_pooled_by_capacity(self):
        phases = [(100, [100] * 5), (200, [100] * 5), (50, [])]
        # busy 1000 over capacity 5*100 + 5*200 = 1500.
        self.assertAlmostEqual(summary.pool_idle_frac(phases, 4), 1 - 1000 / 1500)

    def test_no_phases(self):
        self.assertEqual(summary.pool_idle_frac([], 4), 0.0)


def outcome(**kw):
    base = {"model_hash": "ab", "finite": True, "accuracy": 0.5, "dpr": 10.0,
            "peak_update_bytes": 100}
    base.update(kw)
    return base


# References for a workload with one recorded seed, 7.
EXPECT = {"accuracy_tol": 0.01, "dpr_tol": 1.0, "selects": True, "peak_range": [90, 110],
          "seeds": {"7": {"accuracy": 0.5, "dpr": 10.0, "peak_update_bytes": 100}}}


def attempt_of(seed=7, error="", **kw):
    return {"seed": seed, "error": error, "outcome": outcome(**kw)}


class OutputChecks(unittest.TestCase):
    def check(self, seed=7, budget=0, expect=EXPECT, **kw):
        return summary.check_outcome(outcome(**kw), seed, budget, expect)

    def test_recorded_seed_matches_within_tolerance(self):
        self.assertEqual(self.check(accuracy=0.505, dpr=10.9), "")
        self.assertIn("reference", self.check(accuracy=0.52))
        self.assertIn("reference", self.check(dpr=11.5))
        self.assertIn("reference", self.check(accuracy=float("nan")))

    def test_peak_bytes(self):
        self.assertIn("reference 100", self.check(peak_update_bytes=101))
        self.assertEqual(self.check(seed=8, peak_update_bytes=101), "")
        self.assertIn("range", self.check(seed=8, peak_update_bytes=120))
        self.assertIn("budget", self.check(peak_update_bytes=300, budget=200))

    def test_other_seeds_are_checked_for_plausibility(self):
        self.assertEqual(self.check(seed=8, accuracy=0.25, dpr=100.0), "")
        self.assertIn("floor", self.check(seed=8, accuracy=0.15))
        self.assertIn("floor", self.check(seed=8, accuracy=float("nan")))
        self.assertIn("[0, 100]", self.check(seed=8, dpr=125.0))

    def test_dpr_present_exactly_when_the_workload_selects(self):
        self.assertIn("expects one", self.check(dpr=None))
        no_dpr = dict(EXPECT, selects=False)
        self.assertIn("expects none", self.check(expect=no_dpr))
        self.assertEqual(self.check(expect=no_dpr, dpr=None), "")

    def test_model_must_be_finite(self):
        self.assertIn("finite", self.check(finite=False))


class FailFrac(unittest.TestCase):
    def test_all_pass(self):
        errors = summary.attempt_errors([attempt_of() for _ in range(3)], 0, EXPECT)
        self.assertEqual(errors, ["", "", ""])
        self.assertEqual(summary.fail_frac(errors), 0.0)

    def test_each_check_counts_once(self):
        attempts = [
            attempt_of(),
            attempt_of(finite=False),
            attempt_of(model_hash="cd"),
            attempt_of(peak_update_bytes=300),
            {"seed": 7, "error": "process exited 2"},
            attempt_of(accuracy=float("nan")),
            attempt_of(),
        ]
        errors = summary.attempt_errors(attempts, 200, EXPECT)
        self.assertEqual([bool(e) for e in errors],
                         [False, True, True, True, True, True, False])
        self.assertIn("budget", errors[3])
        self.assertAlmostEqual(summary.fail_frac(errors), 5 / 7)

    def test_first_passing_attempt_is_the_bitwise_reference(self):
        attempts = [attempt_of(finite=False), attempt_of(model_hash="cd"),
                    attempt_of(model_hash="cd"), attempt_of()]
        errors = summary.attempt_errors(attempts, 0, EXPECT)
        self.assertEqual([bool(e) for e in errors], [True, False, False, True])
        self.assertIn("model_hash differs", errors[3])

    def test_each_seed_has_its_own_bitwise_reference(self):
        attempts = [attempt_of(seed=7), attempt_of(seed=8, model_hash="cd"),
                    attempt_of(seed=7), attempt_of(seed=8, model_hash="cd"),
                    attempt_of(seed=8, model_hash="ef")]
        errors = summary.attempt_errors(attempts, 0, EXPECT)
        self.assertEqual([bool(e) for e in errors], [False, False, False, False, True])

    def test_within_tolerance_but_not_repeatable(self):
        errors = summary.attempt_errors(
            [attempt_of(), attempt_of(accuracy=0.505)], 0, EXPECT)
        self.assertIn("accuracy differs", errors[1])

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(summary.fail_frac([]), 1.0)


class Steal(unittest.TestCase):
    def test_serial_work_loses_all_stolen_time(self):
        # One CPU busy: 100 ms wall of which 30 ms stolen, 70 ms CPU.
        self.assertAlmostEqual(summary.without_steal(100, 30, 70), 70)

    def test_parallel_work_loses_its_share(self):
        # Four CPUs busy, 10 ms stolen from each: 360 ms CPU in 100 ms.
        self.assertAlmostEqual(summary.without_steal(100, 40, 360), 90)

    def test_nothing_stolen(self):
        self.assertEqual(summary.without_steal(100, 0, 250), 100)
        self.assertEqual(summary.without_steal(100, 0, 0), 100)


class EndToEnd(unittest.TestCase):
    def attempt(self, rounds_ms, evals, steal=None, setup=1.0, setup_steal=0):
        # Every round and the set-up keep two CPUs busy.
        n = len(rounds_ms)
        return {"round_ns": [int(r * 1e6) for r in rounds_ms],
                "round_steal": steal or [0] * n,
                "round_cpu_us": [int(r * 2e3) for r in rounds_ms],
                "eval": evals, "setup_s": setup, "setup_steal": setup_steal,
                "setup_cpu_us": int(setup * 2e6), "peak_rss_kib": 2048,
                "clock_ticks_per_s": 100, "nproc": 4}

    def test_rare_eval_rounds_are_left_out_of_percentiles(self):
        a = self.attempt([999, 10, 10, 10, 500], [1, 0, 0, 0, 1])
        metrics, extra = summary.end_to_end([a], warmup=1)
        self.assertEqual(metrics["round_ms_p50"][0], 10)
        self.assertEqual(extra["round_samples"], 3)
        # Throughput and CPU still count the evaluation round.
        self.assertAlmostEqual(metrics["rounds_per_s"][0], 4 / 0.53)
        self.assertAlmostEqual(metrics["cpu_ms_per_round"][0], 2 * 530 / 4)

    def test_every_round_evaluating_keeps_all(self):
        a = self.attempt([1, 2, 3, 4], [1, 1, 1, 1])
        metrics, extra = summary.end_to_end([a], warmup=0)
        self.assertEqual(extra["round_samples"], 4)
        self.assertEqual(metrics["round_ms_p50"][0], 2.5)

    def test_rounds_with_stolen_time_are_dropped(self):
        # 100 ms rounds on 4 CPUs: a 5% limit allows 2 ticks of 10 ms. Kept
        # rounds with 200 ms CPU become 100, 100 * 200 / 220 and
        # 100 * 200 / 210 ms.
        a = self.attempt([100, 100, 300, 100], [0] * 4, steal=[0, 2, 30, 1])
        metrics, extra = summary.end_to_end([a], warmup=0)
        kept = [100, 100 * 200 / 220, 100 * 200 / 210]
        self.assertAlmostEqual(metrics["round_ms_p50"][0], kept[2])
        self.assertAlmostEqual(metrics["rounds_per_s"][0], 3 / (sum(kept) / 1e3))
        self.assertEqual(extra["calm_round_share"], 0.75)

    def test_mostly_disturbed_runs_keep_the_calmest_half(self):
        # Stolen shares 0, .375, .333, .3125, .3: the calmest three are
        # rounds 0, 4 and 3, which become 100, 500 * 1000 / 1600 and
        # 400 * 800 / 1300 ms.
        a = self.attempt([100, 200, 300, 400, 500], [0] * 5, steal=[0, 30, 40, 50, 60])
        metrics, extra = summary.end_to_end([a], warmup=0)
        self.assertAlmostEqual(metrics["round_ms_p50"][0], 400 * 800 / 1300)
        self.assertEqual(extra["calm_round_share"], 0.2)

    def test_setup_and_rss_are_medians_over_attempts(self):
        attempts = [self.attempt([1], [0], setup=s) for s in (3.0, 1.0, 2.0)]
        metrics, _ = summary.end_to_end(attempts, warmup=0)
        self.assertEqual(metrics["setup_s"][0], 2.0)
        self.assertEqual(metrics["peak_rss_mib"][0], 2.0)

    def test_setup_drops_stolen_time(self):
        # 4 s of set-up with 160 ticks (1.6 s) stolen: 20% of 4 CPUs, so it
        # is disturbed and, being one of the calmest two of three, kept as
        # 4 * 8 / 9.6 s.
        attempts = [self.attempt([1], [0], setup=s, setup_steal=st)
                    for s, st in ((4.0, 160), (9.0, 900), (2.0, 0))]
        metrics, _ = summary.end_to_end(attempts, warmup=0)
        self.assertAlmostEqual(metrics["setup_s"][0], (2.0 + 4 * 8 / 9.6) / 2)


if __name__ == "__main__":
    unittest.main()
