"""Tests of the benchmark's own logic: python3 -m unittest discover -s e2ebench"""

import json
import math
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import e2e  # noqa: E402
import run  # noqa: E402

ROWS = 64


def table1_stdout(rows=3000, budget="Standard"):
    return (f"== Table I ==\nsimulated gross records: {rows}, window: 150 days, budget: {budget}\n"
            "train rows: 1462, test rows: 365\n")


def table1_report(drop=None, poison=None):
    rows = []
    for m in e2e.MODELS:
        if m == drop:
            continue
        row = {"model": e2e.MODEL_NAMES[m], "wd": 0.1, "jsd": 0.2, "diff_corr": 0.3, "dcr": 0.4,
               "diff_mlef": 1.5}
        if m == poison:
            row["diff_mlef"] = None
        rows.append(row)
    return json.dumps(rows)


def simloop_artifact(policies=e2e.POLICIES):
    fidelity = {"makespan_rel": 0.02, "mean_wait_abs_hours": 26.7, "transfer_rel": 0.7,
                "wan_rel": 0.5, "utilization_abs": 0.04, "queue_depth_l1": 0.07}
    return json.dumps({"schema_version": 1, "ok": True,
                       "policies": [{"policy": p, "fidelity": fidelity} for p in policies]},
                      indent=2)


def served(stream):
    """Responses a correct server gives: the digest is a function of the
    (model, rows, sample_seed) key."""
    return {r.id: {"id": r.id, "ok": True, "status": "ok", "rows": r.rows,
                   "digest": f"{hash((r.model, r.rows, r.sample_seed)) & 0xFFFFFFFF:08x}"}
            for r in stream}


class RequestStream(unittest.TestCase):
    def test_deterministic_in_the_seed(self):
        self.assertEqual(e2e.request_stream(2024, 500, ROWS), e2e.request_stream(2024, 500, ROWS))
        self.assertNotEqual(e2e.request_stream(2024, 500, ROWS), e2e.request_stream(2025, 500, ROWS))

    def test_every_block_of_ten_keeps_the_3_3_3_1_mix(self):
        stream = e2e.request_stream(7, 1000, ROWS)
        for start in range(0, len(stream), 10):
            counts = Counter(r.model for r in stream[start:start + 10])
            self.assertEqual(counts, Counter(tvae=3, ctabgan=3, smote=3, tabddpm=1))

    def test_one_in_eight_repeats_an_earlier_fresh_request_of_its_model(self):
        n = 4000
        stream = e2e.request_stream(11, n, ROWS)
        fresh = set()
        for r in stream:
            key = (r.model, r.rows, r.sample_seed)
            if r.repeat:
                self.assertEqual(r.id % e2e.REPEAT_EVERY, 0)
                self.assertIn(key, fresh)
            else:
                self.assertNotIn(key, fresh, "a fresh request reused a sample_seed")
                fresh.add(key)
        repeats = sum(r.repeat for r in stream)
        # Only the first slot may lack an earlier request of its model.
        self.assertIn(repeats, (n // e2e.REPEAT_EVERY - 1, n // e2e.REPEAT_EVERY))
        self.assertTrue(all(r.rows == ROWS for r in stream))
        self.assertEqual([r.id for r in stream], list(range(1, n + 1)))


class Percentiles(unittest.TestCase):
    def test_a_percentile_needs_ten_samples_beyond_it(self):
        self.assertIsNone(e2e.percentile(list(range(19)), 50))
        self.assertEqual(e2e.percentile(list(range(20)), 50), 9)
        self.assertIsNone(e2e.percentile(list(range(999)), 99))
        self.assertEqual(e2e.percentile(list(range(1000)), 99), 989)
        self.assertEqual(e2e.beyond(1000, 99), 10)

    def test_tail_is_the_highest_qualified_ladder_rung(self):
        self.assertIsNone(e2e.tail_percentile(19))
        self.assertEqual(e2e.tail_percentile(20), 50.0)
        self.assertEqual(e2e.tail_percentile(100), 90.0)
        self.assertEqual(e2e.tail_percentile(1000), 99.0)
        self.assertEqual(e2e.tail_percentile(9999), 99.0)
        self.assertEqual(e2e.tail_percentile(10000), 99.9)

    def test_percentile_ignores_input_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(e2e.percentile(values, 50), 3.0)
        self.assertEqual(e2e.median([3.0, 1.0, 2.0, 10.0]), 2.5)


class Checkers(unittest.TestCase):
    def test_table1_accepts_a_complete_report(self):
        self.assertEqual(e2e.check_table1(table1_stdout(), table1_report(), 3000, "standard"),
                         ([], set()))

    def test_table1_rejects_a_missing_model_row(self):
        problems, failed = e2e.check_table1(table1_stdout(), table1_report(drop="smote"), 3000, "standard")
        self.assertEqual(failed, {"smote"})
        self.assertTrue(problems)

    def test_table1_rejects_a_missing_value(self):
        _, failed = e2e.check_table1(table1_stdout(), table1_report(poison="tvae"), 3000, "standard")
        self.assertEqual(failed, {"tvae"})

    def test_table1_rejects_flags_it_did_not_honour(self):
        # A bad --rows or --budget falls back to a default silently; the echo
        # catches it.
        _, failed = e2e.check_table1(table1_stdout(rows=30000), table1_report(), 3000, "standard")
        self.assertEqual(failed, set(e2e.MODELS))
        _, failed = e2e.check_table1(table1_stdout(budget="Standard"), table1_report(), 3000, "smoke")
        self.assertEqual(failed, set(e2e.MODELS))
        _, failed = e2e.check_table1(table1_stdout(), None, 3000, "standard")
        self.assertEqual(failed, set(e2e.MODELS))

    def test_serve_accepts_consistent_responses(self):
        stream = e2e.request_stream(3, 200, ROWS)
        self.assertEqual(e2e.check_serve(stream, served(stream)), ([], set()))

    def test_serve_rejects_a_changed_digest_on_a_repeat(self):
        stream = e2e.request_stream(3, 200, ROWS)
        responses = served(stream)
        repeat = next(r for r in stream if r.repeat)
        responses[repeat.id]["digest"] = "0000000000000000"
        problems, failed = e2e.check_serve(stream, responses)
        self.assertEqual(failed, {repeat.id})
        self.assertTrue(problems)

    def test_serve_rejects_refusals_short_answers_and_silence(self):
        stream = e2e.request_stream(3, 200, ROWS)
        responses = served(stream)
        responses[1].update(ok=False, status="overload")
        responses[2]["rows"] = ROWS - 1
        del responses[3]
        _, failed = e2e.check_serve(stream, responses)
        self.assertEqual(failed, {1, 2, 3})

    def test_simloop_accepts_a_full_artifact(self):
        self.assertEqual(e2e.check_simloop(0, simloop_artifact()), ([], set()))

    def test_simloop_rejects_a_truncated_artifact(self):
        text = simloop_artifact()
        _, failed = e2e.check_simloop(0, text[: len(text) // 2])
        self.assertEqual(failed, set(e2e.POLICIES))

    def test_simloop_rejects_a_missing_policy_and_a_failed_exit(self):
        _, failed = e2e.check_simloop(0, simloop_artifact(e2e.POLICIES[:2]))
        self.assertEqual(failed, {e2e.POLICIES[2]})
        _, failed = e2e.check_simloop(1, simloop_artifact())
        self.assertEqual(failed, set(e2e.POLICIES))


class TraceAnalysis(unittest.TestCase):
    SPANS = [
        {"name": "run", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "tvae.fit", "start": 0.5, "end": 6.5, "parent": 0},
        {"name": "mlef.base", "start": 6.5, "end": 7.5, "parent": 0},
        {"name": "mlef.base", "start": 7.5, "end": 9.5, "parent": 0},
    ]

    def test_self_time_subtracts_child_spans(self):
        layers = e2e.layer_times(self.SPANS)
        self.assertAlmostEqual(layers["run"][1], 1.0)
        self.assertAlmostEqual(layers["mlef.base"][0], 3.0)
        self.assertEqual(len(layers["mlef.base"][2]), 2)
        self.assertAlmostEqual(e2e.coverage(self.SPANS), 0.9)

    def test_table1_values_take_the_mean_over_models(self):
        values = e2e.table1_values(table1_report())
        self.assertAlmostEqual(values["table1.diff_mlef"], 1.5)
        self.assertEqual(values["smote.wd"], 0.1)


class ReferenceSpeed(unittest.TestCase):
    def test_times_scale_by_the_mean_burst(self):
        nominal = run.REFERENCE_NOMINAL_S
        self.assertAlmostEqual(run.at_reference_speed(2.0, [2 * nominal] * 3), 1.0)
        # The mean, not the median: one slow burst among fast ones counts.
        self.assertAlmostEqual(run.at_reference_speed(1.0, [nominal, nominal, 4 * nominal]), 0.5)


class BenchmarkFile(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        for key, table in (("end_to_end", e2e.END_TO_END), ("per_layer", e2e.PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            self.assertEqual(listed, [tuple(m) for m in table], key)
        self.assertTrue(all(math.isfinite(m["bound"]) for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
