"""Unit tests for the benchmark's statistics helpers.

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

MS = 1_000_000


def rung(qps, latencies_ms, seconds=1.0, shed=0, rejected=0, errors=0,
         done_ms=None):
    """A synthetic ladder rung: answered requests evenly due over the
    schedule with the given latencies, then the failed ones."""
    answered = len(latencies_ms)
    sent = answered + shed + rejected + errors
    due = [int(i * seconds * 1e9 / sent) for i in range(sent)]
    latency = [int(ms * MS) for ms in latencies_ms]
    done = [d + lat for d, lat in zip(due, latency)] + due[answered:]
    if done_ms is not None:
        done = [int(ms * MS) for ms in done_ms]
    return {
        "offered_qps": qps, "scheduled_s": seconds, "sent": sent,
        "answered": answered, "errors": errors, "due_ns": due,
        "answered_due_ns": due[:answered], "latency_ns": latency,
        "done_ns": done, "counters": {"shed": shed, "rejected": rejected},
    }


class PercentileSelection(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(stats.percentile(samples, 0.5), 50)
        self.assertEqual(stats.percentile(samples, 0.99), 99)
        self.assertEqual(stats.percentile(samples, 1.0), 100)
        self.assertEqual(stats.percentile([7], 0.99), 7)
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_quantile(10000), 0.999)
        self.assertEqual(stats.tail_quantile(1000), 0.99)
        self.assertEqual(stats.tail_quantile(999), 0.95)
        self.assertEqual(stats.tail_quantile(100), 0.9)
        self.assertEqual(stats.tail_quantile(40), 0.75)
        self.assertIsNone(stats.tail_quantile(39))

    def test_timing_reports_count_and_tail(self):
        t = stats.timing(list(range(1, 1001)), scale=2.0)
        self.assertEqual(t["n"], 1000)
        self.assertEqual(t["p50"], 1000.0)
        self.assertEqual(t["tail_q"], 0.99)
        self.assertEqual(t["tail"], 1980.0)
        self.assertEqual(stats.quantile_label(t["tail_q"]), "p99")
        self.assertEqual(stats.quantile_label(0.999), "p99.9")

    def test_too_few_samples_fall_back_to_max(self):
        t = stats.timing([3, 1, 2])
        self.assertEqual((t["tail_q"], t["tail"]), (1.0, 3))
        self.assertEqual(stats.timing([])["n"], 0)


class SlotMinima(unittest.TestCase):
    def test_fastest_pass_per_slot(self):
        samples = [5, 9, 7,
                   6, 2, 8,
                   4, 3, 9]
        self.assertEqual(stats.slot_minima(samples, 3), [4, 2, 7])

    def test_unfinished_pass_is_ignored(self):
        self.assertEqual(stats.slot_minima([5, 9, 7, 1, 1], 3), [5, 9, 7])

    def test_needs_a_complete_pass(self):
        with self.assertRaises(ValueError):
            stats.slot_minima([1, 2], 3)


class FailureAccounting(unittest.TestCase):
    def test_every_failure_kind_counts_against_sent(self):
        self.assertAlmostEqual(
            stats.fail_ratio(100, errors=1, shed=2, rejected=3), 0.06)
        # The base is requests sent, not requests answered.
        self.assertAlmostEqual(stats.fail_ratio(10, shed=5), 0.5)

    def test_inconsistent_counts_are_rejected(self):
        with self.assertRaises(ValueError):
            stats.fail_ratio(0)
        with self.assertRaises(ValueError):
            stats.fail_ratio(4, errors=2, shed=2, rejected=1)

    def test_shed_rejected_and_errors_fail_a_rung(self):
        self.assertEqual(stats.rung_failures(rung(100, [10] * 98, shed=2)),
                         {"fail": "fail_ratio 0.020 > 0.01"})
        self.assertIn("fail", stats.rung_failures(
            rung(100, [10] * 98, rejected=1, errors=1)))
        self.assertEqual(stats.rung_failures(rung(100, [10] * 99, shed=1)),
                         {})


class SloLadder(unittest.TestCase):
    def test_steady_rung_passes(self):
        self.assertEqual(stats.rung_failures(rung(100, [10] * 100)), {})

    def test_tail_over_limit_fails(self):
        failures = stats.rung_failures(rung(100, [10] * 80 + [60] * 20))
        self.assertEqual(set(failures), {"latency"})

    def test_growing_wait_is_a_backlog(self):
        r = rung(100, [5] * 50 + [20] * 50)
        self.assertEqual(set(stats.rung_failures(r)), {"backlog"})
        self.assertFalse(stats.backlog_growing(
            r["answered_due_ns"], [10 * MS] * 100, r["done_ns"], 1.0))

    def test_late_completion_is_a_backlog(self):
        r = rung(100, [10] * 100, done_ms=[10] * 99 + [1200])
        self.assertTrue(stats.backlog_growing(
            r["answered_due_ns"], r["latency_ns"], r["done_ns"], 1.0))

    def test_walk_stops_at_first_failing_rung(self):
        rungs = [rung(200, [10] * 200), rung(50, [10] * 50),
                 rung(150, [5] * 75 + [20] * 75), rung(100, [10] * 100)]
        qps, index = stats.slo_max_qps(rungs)
        self.assertEqual(index, 1)
        self.assertAlmostEqual(qps, stats.achieved_qps(rungs[3]))

    def test_latency_only_failure_interpolates(self):
        below = rung(100, [30] * 100)
        above = rung(120, [70] * 120)
        qps, index = stats.slo_max_qps([below, above])
        self.assertEqual(index, 0)
        low, high = stats.achieved_qps(below), stats.achieved_qps(above)
        self.assertAlmostEqual(qps, low + 0.5 * (high - low))

    def test_no_passing_rung_reads_zero(self):
        self.assertEqual(stats.slo_max_qps([rung(100, [80] * 100)]),
                         (0.0, None))


if __name__ == "__main__":
    unittest.main()
