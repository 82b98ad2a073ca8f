"""Self-tests of the end-to-end benchmark, at reduced scale (seconds each).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root: the first test builds rge_e2e into
$CARGO_TARGET_DIR (default .bench_build), as perfbench/run.py does.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace=0, seed=3, inject=None, cwd=ROOT):
    """(exit code, result object or None) of one reduced-scale run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
           str(trace), "--scale", "small"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
    return proc.returncode, result


class Contract(unittest.TestCase):
    def check_clean(self, result, names):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, m in result["metrics"].items():
            self.assertIsNotNone(m["value"], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_untraced_runs_report_every_end_to_end_metric(self):
        names = [m["name"] for m in BENCH["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result = bench(w)
                self.assertEqual(rc, 0)
                self.check_clean(result, names)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_runs_report_every_layer_and_cover_the_wall(self):
        names = [m["name"] for m in BENCH["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result = bench(w, trace=1)
                self.assertEqual(rc, 0)
                self.check_clean(result, names)
                self.assertGreaterEqual(
                    result["metrics"]["trace.layer_sum_pct"]["value"], 95.0)

    def test_seed_fixes_the_inputs(self):
        fixed = ["map_mre_pct", "map_covered_pct", "online_grade_mae_deg"]
        a = bench("live_fleet", seed=5)[1]["metrics"]
        b = bench("live_fleet", seed=5)[1]["metrics"]
        c = bench("live_fleet", seed=6)[1]["metrics"]
        for name in fixed:
            self.assertEqual(a[name]["value"], b[name]["value"], name)
        self.assertNotEqual(a["online_grade_mae_deg"]["value"],
                            c["online_grade_mae_deg"]["value"])


class Checks(unittest.TestCase):
    """Each correctness check, deliberately violated, fails the run."""

    def test_violations_fail_the_run(self):
        cases = [("alt", "map_serving", 0), ("served-cell", "city_survey", 0),
                 ("online", "live_fleet", 0), ("parity", "city_survey", 1)]
        for inject, workload, trace in cases:
            with self.subTest(check=inject):
                rc, result = bench(workload, trace=trace, inject=inject)
                self.assertEqual(rc, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_without_the_library_it_fails_fast(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                   "0"]
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=tmp, env=env, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Compare(unittest.TestCase):
    """perfbench/compare.py on synthetic result sets."""

    def write(self, path, values):
        with open(path, "w") as f:
            for i, v in enumerate(values):
                metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                           for m in BENCH["end_to_end"]}
                rec = {"meta": {"workload": WORKLOADS[0], "trace": 0,
                                "seed": i},
                       "result": {"correct": True, "attempted": 1,
                                  "failed": 0, "metrics": metrics}}
                f.write(json.dumps(rec) + "\n")

    def compare(self, base, new):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a.jsonl"), os.path.join(tmp, "b.jsonl")
            self.write(a, base)
            self.write(b, new)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), a, b],
                capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    def test_same_numbers_pass(self):
        rc, out = self.compare([100, 101, 99, 100], [100, 100, 101, 99])
        self.assertEqual(rc, 0, out)
        self.assertNotIn("REGRESSED", out)

    def test_past_a_bound_fails(self):
        # Every metric moves by 2x: lower-is-better ones regress.
        rc, out = self.compare([100, 101, 99, 100], [200, 201, 199, 200])
        self.assertEqual(rc, 1, out)
        self.assertIn("REGRESSED", out)

    def test_noisy_runs_are_unresolved(self):
        rc, out = self.compare([50, 150, 60, 140], [55, 145, 65, 135])
        self.assertIn("unresolved", out)
        self.assertEqual(rc, 0, out)


if __name__ == "__main__":
    unittest.main()
