#!/usr/bin/env python3
"""Tests of run.py's result-line shaping and BENCHMARK.json agreement.

Run: python3 perfbench/test_run.py
"""
import json
import re
import tempfile
import unittest
from pathlib import Path

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def result(metrics, correct=True):
    return {"workload": "paced_mtu", "seed": 7, "seconds": 10,
            "correct": correct, "attempted": 10, "failed": 0,
            "digest": "00ff", "metrics": metrics}


class FinalLine(unittest.TestCase):
    def test_keeps_exactly_the_listed_metrics(self):
        r = result({"a": {"value": 1.5, "unit": "ms", "samples": 9},
                    "b": {"value": 2, "unit": "1/s"}})
        line = run.final_line(r, ["a"], {"a": "ms"})
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"], {"a": {"value": 1.5, "unit": "ms"}})
        self.assertEqual(json.loads(json.dumps(line)), line)

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(ValueError):
            run.final_line(result({}), ["a"], {"a": "ms"})

    def test_unit_mismatch_is_an_error(self):
        r = result({"a": {"value": 1, "unit": "s"}})
        with self.assertRaises(ValueError):
            run.final_line(r, ["a"], {"a": "ms"})

    def test_non_finite_value_is_an_error(self):
        r = result({"a": {"value": None, "unit": "ms"}})
        with self.assertRaises(ValueError):
            run.final_line(r, ["a"], {"a": "ms"})

    def test_incorrect_result_stays_incorrect(self):
        r = result({"a": {"value": 1, "unit": "ms"}}, correct=False)
        self.assertFalse(run.final_line(r, ["a"], {"a": "ms"})["correct"])


class DigestGate(unittest.TestCase):
    def test_second_run_of_a_seed_must_agree(self):
        with tempfile.TemporaryDirectory() as d:
            first = run.digest_gate(Path(d), result({}), "src1")
            same = run.digest_gate(Path(d), result({}), "src1")
            other = dict(result({}), digest="0100")
            differs = run.digest_gate(Path(d), other, "src1")
            new_sources = run.digest_gate(Path(d), other, "src2")
        self.assertTrue(first["ok"] and same["ok"] and new_sources["ok"])
        self.assertFalse(differs["ok"])


class Spec(unittest.TestCase):
    def test_benchmark_json_names_and_bounds(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
