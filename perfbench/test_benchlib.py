"""Tests of the benchmark's own helpers (perfbench/benchlib.py).

    python3 -m unittest discover -s perfbench
"""

import copy
import json
import statistics
import unittest
from pathlib import Path

import benchlib

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def minimal_spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": "a", "why": "first"},
                      {"name": "b", "why": "second"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "rebuild_s_p50", "unit": "s", "better": "lower",
             "bound": 0.1},
            {"name": "rebuild_s_tail", "unit": "s", "better": "lower",
             "bound": 0.2},
            {"name": "receivers_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.1},
        ],
        "per_layer": [
            {"name": "core.decode_s", "unit": "s", "better": "lower"},
            {"name": "net.recv_s", "unit": "s", "better": "lower"},
        ],
    }


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.9, 1.4, 1.1, 1.0, 1.3, 1.2, 0.95, 1.05, 1.25, 1.15]
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        # Exclusive method on 1..9: Q1 = 2.5, Q3 = 7.5.
        self.assertEqual(benchlib.quartiles(range(1, 10)), (2.5, 5, 7.5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchlib.spread(list(range(1, 10))), 5 / 5)
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)
        with self.assertRaises(ValueError):
            benchlib.spread([1.0])


class TailTest(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertIsNone(benchlib.tail(list(range(10))))
        self.assertIsNone(benchlib.tail([]))

    def test_ten_samples_beyond(self):
        # 11 samples: only the smallest has ten beyond it.
        self.assertEqual(benchlib.tail(list(range(11))), (0, 100 / 11, 11))
        # 20 samples: rank 10, the median.
        value, pct, n = benchlib.tail(list(range(1, 21)))
        self.assertEqual((value, pct, n), (10, 50.0, 20))
        # 98 samples: rank 88, exactly ten above it, below the p90 cap.
        values = list(range(98, 0, -1))
        value, pct, n = benchlib.tail(values)
        self.assertEqual((value, n), (88, 98))
        self.assertAlmostEqual(pct, 100 * 88 / 98)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_capped_at_p90(self):
        # 1000 samples: ten beyond would be rank 990; the cap holds p90.
        value, pct, n = benchlib.tail(list(range(1, 1001)))
        self.assertEqual((value, pct, n), (900, 90.0, 1000))
        # 240 samples: rank ceil(216) = 216, 24 samples beyond.
        value, pct, _ = benchlib.tail([float(i) for i in range(1, 241)])
        self.assertEqual((value, pct), (216.0, 90.0))
        # Without the cap the rule alone picks rank n - 10.
        value, _, _ = benchlib.tail(list(range(1, 1001)), cap=100)
        self.assertEqual(value, 990)

    def test_ties_count_by_rank(self):
        value, pct, _ = benchlib.tail([5.0] * 30)
        self.assertEqual(value, 5.0)
        self.assertAlmostEqual(pct, 100 * 20 / 30)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "core.write_xor_s", "a", "9lives",
                     "x" * 64, "kern.gf256_fma_GBps", "a-b.c_d"):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_lead", ".lead", "-lead", "x" * 65, "has space",
                     "slash/no", "pct%", "ünïcode", None, 3):
            self.assertFalse(benchlib.valid_name(name), name)

    def test_units(self):
        for unit in ("s", "ms", "1/s", "count", "%", "GB/s", "MB"):
            self.assertTrue(benchlib.valid_unit(unit), unit)
        for unit in ("", "x" * 17, "m s", "s*"):
            self.assertFalse(benchlib.valid_unit(unit), unit)


class SchemaTest(unittest.TestCase):
    def assert_invalid(self, spec, fragment):
        errors = benchlib.validate_spec(spec)
        self.assertTrue(any(fragment in e for e in errors),
                        f"no error mentioning {fragment!r} in {errors}")

    def test_repository_benchmark_is_valid(self):
        spec = json.loads(SPEC_PATH.read_text())
        self.assertEqual(benchlib.validate_spec(spec), [])

    def test_minimal_spec_is_valid(self):
        self.assertEqual(benchlib.validate_spec(minimal_spec()), [])

    def test_exact_top_level_keys(self):
        spec = minimal_spec()
        spec["extra"] = 1
        self.assert_invalid(spec, "exactly the keys")
        spec = minimal_spec()
        del spec["per_layer"]
        self.assert_invalid(spec, "exactly the keys")

    def test_bound_limits(self):
        for bound in (0.26, 0, -0.1, True, "0.1"):
            spec = minimal_spec()
            spec["end_to_end"][1]["bound"] = bound
            self.assert_invalid(spec, "bound")

    def test_setup_s_required(self):
        spec = minimal_spec()
        spec["end_to_end"] = spec["end_to_end"][1:]
        self.assert_invalid(spec, "setup_s")
        spec = minimal_spec()
        spec["end_to_end"][0]["better"] = "higher"
        self.assert_invalid(spec, "setup_s")

    def test_workload_count_and_why(self):
        spec = minimal_spec()
        spec["workloads"] = spec["workloads"][:1]
        self.assert_invalid(spec, "2 to 8")
        spec = minimal_spec()
        spec["workloads"][0]["why"] = "two\nlines"
        self.assert_invalid(spec, "one line")
        spec = minimal_spec()
        spec["workloads"][0]["why"] = "x" * 201
        self.assert_invalid(spec, "one line")

    def test_names_unique_and_valid(self):
        spec = minimal_spec()
        spec["per_layer"][1]["name"] = "core.decode_s"
        self.assert_invalid(spec, "unique")
        spec = minimal_spec()
        spec["workloads"][1]["name"] = "bad name"
        self.assert_invalid(spec, "invalid name")

    def test_paths_and_command_stay_inside(self):
        for path in ("/abs", "../up", "a/../b", "sp ace", ""):
            spec = minimal_spec()
            spec["paths"] = [path]
            self.assert_invalid(spec, "paths")
        spec = minimal_spec()
        spec["command"] = ["python3", "/abs/run.py"]
        self.assert_invalid(spec, "leaves the checkout")

    def test_run_seconds_range(self):
        for seconds in (0, 61, 1.5, True):
            spec = minimal_spec()
            spec["run_seconds"] = seconds
            self.assert_invalid(spec, "run_seconds")

    def test_metric_entries(self):
        spec = minimal_spec()
        spec["per_layer"][0]["bound"] = 0.1
        self.assert_invalid(spec, "exactly the keys")
        spec = minimal_spec()
        spec["per_layer"][0]["unit"] = "sec onds"
        self.assert_invalid(spec, "unit")
        spec = minimal_spec()
        spec["end_to_end"][1]["better"] = "faster"
        self.assert_invalid(spec, "better")


class SummarizeTest(unittest.TestCase):
    def raw(self, **overrides):
        raw = {"values": {"receivers_per_s": 4.0, "core.decode_s": 0.5,
                          "encode_MBps": 30.0},
               "samples": {"setup_s": [3.0, 1.0, 2.0],
                           "rebuild_s": [float(i) for i in range(1, 21)]},
               "notes": {"env.isa": "gfni"},
               "failures": [], "attempted": 20, "failed": 0}
        raw.update(overrides)
        return raw

    def test_end_to_end(self):
        result, info, problems = benchlib.summarize(minimal_spec(), self.raw(),
                                                    trace=False)
        self.assertEqual(problems, [])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        m = result["metrics"]
        self.assertEqual(set(m), {"setup_s", "rebuild_s_p50",
                                  "rebuild_s_tail", "receivers_per_s"})
        self.assertEqual(m["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(m["rebuild_s_p50"]["value"], 10.5)
        self.assertEqual(m["rebuild_s_tail"]["value"], 10.0)
        self.assertIn(("encode_MBps", 30.0, ""), info)
        self.assertIn(("env.isa", "gfni", ""), info)

    def test_per_layer_idle_layers_read_zero(self):
        result, _, problems = benchlib.summarize(minimal_spec(), self.raw(),
                                                 trace=True)
        self.assertEqual(problems, [])
        self.assertEqual(result["metrics"]["core.decode_s"]["value"], 0.5)
        self.assertEqual(result["metrics"]["net.recv_s"]["value"], 0.0)

    def test_wrong_outputs_make_the_run_incorrect(self):
        spec = minimal_spec()
        cases = [
            self.raw(failures=["transfer 3 rebuilt a file that differs"]),
            self.raw(failed=1),
            self.raw(attempted=0),
            self.raw(values={"core.decod_s": 1.0, "receivers_per_s": 4.0}),
            self.raw(values={"receivers_per_s": None}),
            self.raw(values={"receivers_per_s": 0.0}),
            self.raw(samples={"setup_s": [1.0], "rebuild_s": [1.0] * 5}),
        ]
        for raw in cases:
            result, _, problems = benchlib.summarize(spec, copy.deepcopy(raw),
                                                     trace=False)
            self.assertFalse(result["correct"], raw)
            self.assertTrue(problems)
            self.assertGreaterEqual(result["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
