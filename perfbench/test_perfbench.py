"""Self-tests of the benchmark definition and result handling.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
    python3 perfbench/run.py --self-test   # also runs the runner's own

They need no build: they check BENCHMARK.json and layers.json against
the benchmark's grammar, and the rules run.py applies to a report.
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_json("BENCHMARK.json")
        self.layers = run.load_json("layers.json")

    def test_committed_spec_is_valid(self):
        self.assertEqual(run.spec_problems(self.spec, self.layers), [])

    def test_metric_and_workload_names_follow_the_grammar(self):
        for bad in ("-lead", "has space", "x" * 65, ""):
            spec = copy.deepcopy(self.spec)
            spec["per_layer"][0]["name"] = bad
            layers = copy.deepcopy(self.layers)
            layers["per_layer"][bad] = layers["per_layer"].pop(
                self.spec["per_layer"][0]["name"])
            self.assertTrue(run.spec_problems(spec, layers), bad)
        spec = copy.deepcopy(self.spec)
        spec["workloads"][1]["name"] = spec["workloads"][0]["name"]
        self.assertTrue(run.spec_problems(spec, self.layers))
        spec = copy.deepcopy(self.spec)
        spec["end_to_end"][1]["unit"] = "mega bytes"
        self.assertTrue(run.spec_problems(spec, self.layers))

    def test_setup_s_carries_the_largest_bound(self):
        spec = copy.deepcopy(self.spec)
        for m in spec["end_to_end"]:
            if m["name"] == "setup_s":
                m["bound"] = 0.01
        self.assertTrue(run.spec_problems(spec, self.layers))

    def test_layer_map_refers_only_to_declared_names(self):
        name = self.spec["per_layer"][0]["name"]
        for key, value in (("metric", "not_declared"), ("on", ["nowhere"])):
            layers = copy.deepcopy(self.layers)
            layers["per_layer"][name]["moves"] = [
                {"metric": "setup_s", "on": ["ar-live"]}]
            layers["per_layer"][name]["moves"][0][key] = value
            self.assertTrue(run.spec_problems(self.spec, layers), key)
        layers = copy.deepcopy(self.layers)
        layers["per_layer"][name]["measured_on"] = ["nowhere"]
        self.assertTrue(run.spec_problems(self.spec, layers))
        layers = copy.deepcopy(self.layers)
        del layers["per_layer"][name]
        self.assertTrue(run.spec_problems(self.spec, layers))

    def test_every_declared_metric_is_mapped_or_measured(self):
        workloads = {w["name"] for w in self.spec["workloads"]}
        for name, row in self.layers["per_layer"].items():
            self.assertTrue(row["measured_on"], name)
            self.assertLessEqual(set(row["measured_on"]), workloads)


class ResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_json("BENCHMARK.json")
        self.layers = run.load_json("layers.json")

    def measured(self, names, value=1.5):
        units = {m["name"]: m["unit"]
                 for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        return {n: {"value": value, "unit": units[n]} for n in names}

    def test_end_to_end_result_holds_exactly_the_declared_metrics(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        got = run.select_metrics(self.spec, self.layers, "ar-live", False,
                                 self.measured(names))
        self.assertEqual(sorted(got), sorted(names))

    def test_missing_or_zero_end_to_end_metric_is_refused(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        with self.assertRaises(ValueError):
            run.select_metrics(self.spec, self.layers, "ar-live", False,
                               self.measured(names[1:]))
        measured = self.measured(names)
        measured[names[0]]["value"] = 0.0
        with self.assertRaises(ValueError):
            run.select_metrics(self.spec, self.layers, "ar-live", False,
                               measured)

    def test_unsupported_percentile_is_refused(self):
        # The runner writes -1 for a quantile whose sample is too small
        # (quantileSupported): no p99 from fewer than 1000 samples.
        names = [m["name"] for m in self.spec["end_to_end"]]
        measured = self.measured(names)
        measured["frame_ms_p99"]["value"] = -1.0
        with self.assertRaises(ValueError):
            run.select_metrics(self.spec, self.layers, "sponza-replay",
                               False, measured)

    def test_layers_off_a_workloads_path_read_zero(self):
        table = self.layers["per_layer"]
        on_path = [n for n in table if "ar-live" in table[n]["measured_on"]]
        self.assertLess(len(on_path), len(table))
        got = run.select_metrics(self.spec, self.layers, "ar-live", True,
                                 self.measured(on_path))
        self.assertEqual(len(got), len(self.spec["per_layer"]))
        for name, m in got.items():
            self.assertEqual(m["value"], 1.5 if name in on_path else 0.0)


if __name__ == "__main__":
    unittest.main()
