"""Self-tests of the benchmark harness.

Usage, from the root of a checkout: python3 perfbench/selftest.py

They run a tiny config that reaches every wrapped layer, once untraced and
once traced, and check that the wrappers are transparent, that span self
times add up to the traced cli.run, and that the output checks fail a run
whose reference is wrong.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

import outputs
import run
import traced_cli

TINY_CONFIG = """\
# Every layer the tracer wraps, in about a second.
omega_c = 1e8
omega_m = 1e7
omega_p = 0.8*omega_c
drive_amp = 0.05*omega_c
g_ratio = 0.033
alpha = 1
gamma = 1
t_end = 6.283185307179586e-07
n_samples = 21
modes = undriven,driven-analytic,driven-numeric,compare,wigner
filter = true
field_dim = 16
mirror_dim = 16
wigner_grid_points = 24
"""


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        base = os.path.join(run.ROOT, ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=base, prefix="selftest_")
        cls.addClassCleanup(shutil.rmtree, cls.tmp, ignore_errors=True)
        cls.config = os.path.join(cls.tmp, "tiny.cfg")
        with open(cls.config, "w") as f:
            f.write(TINY_CONFIG)
        cls.env = run.Bench(cls.config, {}, cls.tmp, time.monotonic()).env
        cls.plain = os.path.join(cls.tmp, "plain")
        cls.traced = os.path.join(cls.tmp, "traced")
        cls.spans = os.path.join(cls.tmp, "spans.json")
        for prefix, out in (([sys.executable, "-m", "optomech.cli"], cls.plain),
                            ([sys.executable, os.path.join(run.BENCH_DIR, "traced_cli.py"),
                              cls.spans], cls.traced)):
            subprocess.run(prefix + ["run", "--config", cls.config, "--out", out],
                           env=cls.env, check=True, capture_output=True, timeout=120)
        cls.reference = outputs.summarize(cls.plain)

    def _bench(self, reference):
        return run.Bench(self.config, reference, self.tmp, time.monotonic() + 120)

    def test_wrappers_are_transparent(self):
        files = sorted(os.listdir(self.plain))
        self.assertEqual(files, sorted(os.listdir(self.traced)))
        for name in files:
            with open(os.path.join(self.plain, name), "rb") as a, \
                    open(os.path.join(self.traced, name), "rb") as b:
                self.assertEqual(a.read(), b.read(), name)

    def test_every_layer_is_reached(self):
        with open(self.spans) as f:
            names = {s["name"] for s in json.load(f)["spans"]}
        self.assertEqual(names, {name for _, _, name, _ in traced_cli.WRAPPED})

    def test_self_times_sum_to_cli_run(self):
        with open(self.spans) as f:
            spans = json.load(f)["spans"]
        duration = {s["id"]: s["end"] - s["start"] for s in spans}
        children = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += duration[s["id"]]
        self_total = sum(duration[i] - children[i] for i in duration)
        run_s = sum(duration[s["id"]] for s in spans if s["name"] == "cli.run")
        self.assertLessEqual(abs(self_total - run_s), 0.01 * run_s)

    def test_matching_reference_passes(self):
        bench = self._bench(self.reference)
        bench.run()
        self.assertEqual((bench.attempted, bench.failed), (1, 0))

    def test_corrupted_reference_is_a_failed_operation(self):
        corrupted = dict(self.reference)
        key = "phonon_avg_numeric.csv:y"
        corrupted[key] = corrupted[key] * (1 + 1e-3)
        bench = self._bench(corrupted)
        bench.run()
        self.assertEqual((bench.attempted, bench.failed), (1, 1))

    def test_tolerance_separates_accuracy_from_physics(self):
        for scale, ok in ((1e-7, True), (1e-3, False)):
            shifted = {k: v * (1 + scale) if k.endswith(":y") else v
                       for k, v in self.reference.items()}
            self.assertEqual(outputs.compare_summaries(shifted, self.reference) == [], ok)

    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in declared[key]], list(reported))
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))

    def test_refuses_without_program(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "strong_analytic",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
