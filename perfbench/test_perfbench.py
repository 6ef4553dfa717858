"""Tests of the benchmark's own rules: python3 -m unittest discover -s perfbench"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True

import measure  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TailRule(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        value, pct, n = measure.tail(samples)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_tail_is_order_independent(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(measure.tail(samples), measure.tail(sorted(samples)))

    def test_tail_never_below_the_median(self):
        for n in range(1, 22):
            samples = list(range(1, n + 1))
            value, pct, count = measure.tail(samples)
            self.assertEqual(count, n)
            self.assertGreaterEqual(value, measure.median(samples))
            self.assertGreaterEqual(pct, 50.0)

    def test_more_samples_move_the_tail_out(self):
        _, small, _ = measure.tail(list(range(40)))
        _, large, _ = measure.tail(list(range(400)))
        self.assertEqual(small, 75.0)
        self.assertEqual(large, 97.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            measure.tail([])


class FailureCounting(unittest.TestCase):
    def test_every_failure_counts(self):
        tally = measure.Tally()
        for i in range(10):
            tally.record(i % 5 != 0, f"op {i}")
        self.assertEqual(tally.attempted, 10)
        self.assertEqual(tally.failed, 2)
        self.assertEqual(tally.failures, ["op 0", "op 5"])
        self.assertAlmostEqual(tally.failed_ratio(), 0.2)
        self.assertAlmostEqual(tally.success_ratio(), 0.8)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(measure.Tally().failed_ratio(), 1.0)

    def test_invisible_batches_fail_and_still_count_as_samples(self):
        due = [0.0, 1.0, 2.0, 3.0]
        visible = [0.05, None, 9.0, 3.2]
        lat, failed = measure.visible_latencies_ms(due, visible, deadline_s=5.0)
        self.assertEqual(failed, [1, 2])
        self.assertEqual(len(lat), 4)
        self.assertAlmostEqual(lat[0], 50.0)
        self.assertEqual(lat[1], 5000.0)
        self.assertEqual(lat[2], 5000.0)
        self.assertAlmostEqual(lat[3], 200.0)


class OpenLoopLateness(unittest.TestCase):
    def test_lateness_is_measured_from_the_due_time(self):
        due = [0.0, 0.1, 0.2]
        sent = [0.0, 0.13, 0.2005]
        late = measure.lateness_ms(due, sent)
        self.assertAlmostEqual(late[0], 0.0)
        self.assertAlmostEqual(late[1], 30.0)
        self.assertAlmostEqual(late[2], 0.5)

    def test_early_sends_are_not_negative_lateness(self):
        self.assertEqual(measure.lateness_ms([1.0], [0.9]), [0.0])

    def test_a_stall_delays_later_batches_from_their_due_times(self):
        # The generator stalls for 250 ms before batch 1, then sends the
        # overdue batches at once: each is late against its own schedule.
        due = [0.0, 0.1, 0.2, 0.3]
        sent = [0.0, 0.35, 0.35, 0.35]
        late = measure.lateness_ms(due, sent)
        self.assertAlmostEqual(max(late), 250.0)
        self.assertAlmostEqual(late[3], 50.0)

    def test_every_batch_needs_a_send_time(self):
        with self.assertRaises(ValueError):
            measure.lateness_ms([0.0, 0.1], [0.0])


class ReferenceCheck(unittest.TestCase):
    SCHEMA = b"{\n  a: Num,\n  b: Str?\n}\n"

    def test_identical_output_passes(self):
        self.assertEqual(measure.same_output(self.SCHEMA, bytes(self.SCHEMA)), (True, ""))

    def test_perturbed_schema_is_rejected(self):
        perturbed = self.SCHEMA.replace(b"Str?", b"Str")
        ok, reason = measure.same_output(self.SCHEMA, perturbed)
        self.assertFalse(ok)
        self.assertIn("byte 20", reason)

    def test_truncated_or_extended_output_is_rejected(self):
        self.assertFalse(measure.same_output(self.SCHEMA, self.SCHEMA[:-1])[0])
        self.assertFalse(measure.same_output(self.SCHEMA, self.SCHEMA + b"\n")[0])


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json states what run.py measures."""

    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_workloads_match(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.spec["workloads"]],
            [(w.name, w.why) for w in workloads.WORKLOADS.values()],
        )

    def test_end_to_end_metrics_match(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in self.spec["end_to_end"]],
            run.END_TO_END,
        )

    def test_per_layer_metrics_match(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
            traced.PER_LAYER,
        )


if __name__ == "__main__":
    unittest.main()
