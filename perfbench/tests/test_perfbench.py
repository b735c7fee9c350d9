"""The benchmark's own tests.  Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark program the way run.py does (first run: about a minute).
"""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def probe(binary, kind, lam):
    done = subprocess.run(
        [binary, "--probe-defect", kind, "--seed", "42", "--lambda", str(lam)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class KnownDefect(unittest.TestCase):
    """Open defect: replicated SCD in the dual at λ=1e-4 with 4 lanes goes
    to NaN on 32768 x 65536 webspam-like rows, for both the deterministic
    ("rep") and the real-thread ("rep-threads") solver.  The benchmark's
    checker must score that run as failed; at λ=1e-3 (the workloads' λ) the
    same run is healthy and must pass."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("tpa_perfbench did not build")

    def test_rep_threads_at_1e_4_is_scored_failed(self):
        result = probe(self.binary, "rep-threads", 1e-4)
        self.assertTrue(result["failed"], result)
        self.assertIn("not finite", result["why"])

    def test_rep_at_1e_4_is_scored_failed(self):
        result = probe(self.binary, "rep", 1e-4)
        self.assertTrue(result["failed"], result)

    def test_rep_threads_at_1e_3_passes(self):
        result = probe(self.binary, "rep-threads", 1e-3)
        self.assertFalse(result["failed"], result)


class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json stays within the limits its runner enforces."""

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_every_per_layer_metric_has_a_workload(self):
        """run.py's LAYER_WORK names catalogued metrics only, and every
        per-layer metric is emitted by at least one workload."""
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(set(run.LAYER_WORK), set(run.WORKLOADS))
        owned = set()
        for work in run.LAYER_WORK.values():
            owned |= set(work["nonzero"]) | set(work["present"])
        self.assertEqual(owned - per_layer, set())
        self.assertEqual(per_layer - owned, set())


def check(workload, trace, metrics):
    """run.check_metrics without its [idle layer] lines."""
    with contextlib.redirect_stdout(io.StringIO()):
        return run.check_metrics(workload, trace, metrics)


class LayerCheck(unittest.TestCase):
    """A traced run whose exercised layer reads 0 or goes missing is
    refused; metrics of layers the workload leaves idle are filled with 0."""

    def traced_fleet_metrics(self):
        units = {m["name"]: m["unit"] for m in run.catalog()[1]}
        work = run.LAYER_WORK["fleet-hetero"]
        return {n: {"value": 1.5, "unit": units[n]}
                for n in work["nonzero"] + work["present"]}

    def test_healthy_run_passes_and_idle_layers_read_0(self):
        metrics, problems = check("fleet-hetero", 1, self.traced_fleet_metrics())
        self.assertEqual(problems, [])
        self.assertEqual(metrics["store.wait_s"]["value"], 0)
        self.assertEqual(list(metrics),
                         [m["name"] for m in run.catalog()[1]])

    def test_zero_span_on_its_workload_is_refused(self):
        metrics = self.traced_fleet_metrics()
        metrics["gpusim.sweep_wall_s"]["value"] = 0
        _, problems = check("fleet-hetero", 1, metrics)
        self.assertEqual(len(problems), 1)
        self.assertIn("gpusim.sweep_wall_s reads 0", problems[0])

    def test_missing_span_on_its_workload_is_refused(self):
        metrics = self.traced_fleet_metrics()
        del metrics["cluster.round_s"]
        _, problems = check("fleet-hetero", 1, metrics)
        self.assertEqual(len(problems), 1)
        self.assertIn("missing per-layer metric cluster.round_s", problems[0])

    def test_count_that_may_be_0_passes(self):
        metrics = self.traced_fleet_metrics()
        metrics["cluster.attr.straggler_s"]["value"] = 0
        _, problems = check("fleet-hetero", 1, metrics)
        self.assertEqual(problems, [])


if __name__ == "__main__":
    unittest.main()
