"""Self-tests of the benchmark. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The first two classes need no build. BenchmarkRunTest builds the benchmark
(like run.py does on first use) and runs the smallest workload briefly.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def declared_metrics():
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


class DeclarationTest(unittest.TestCase):
    def test_metric_names_and_units_are_well_formed(self):
        end_to_end, per_layer = declared_metrics()
        names = [m["name"] for m in end_to_end + per_layer]
        self.assertEqual(len(names), len(set(names)), "metric names must be unique")
        for m in end_to_end + per_layer:
            self.assertTrue(NAME.fullmatch(m["name"]) and m["name"][0].isalnum(), m["name"])
            self.assertTrue(UNIT.fullmatch(m["unit"]), m)
        self.assertIn("setup_s", [m["name"] for m in end_to_end])

    def test_seed_changes_the_generated_inputs(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.make_inputs(w, 3), run.make_inputs(w, 3))
            self.assertNotEqual(run.make_inputs(w, 0), run.make_inputs(w, 1))
            self.assertNotEqual(run.make_inputs(w, run.DEFAULT_SEED),
                                run.make_inputs(w, run.HELD_OUT_SEED))


class ReferenceCheckTest(unittest.TestCase):
    def setUp(self):
        self.reference = run.load_reference()

    def report_for(self, workload, outputs):
        return {"outputs": outputs, "reference_outputs": outputs}

    def test_exact_outputs_pass(self):
        for w in run.WORKLOADS:
            good = dict(self.reference["workloads"][w][str(run.DEFAULT_SEED)])
            self.assertEqual(
                run.check_references(w, run.DEFAULT_SEED, self.report_for(w, good),
                                     self.reference), [])

    def test_perturbed_values_are_rejected(self):
        for w in run.WORKLOADS:
            good = self.reference["workloads"][w][str(run.DEFAULT_SEED)]
            for key, value in good.items():
                bad = dict(good)
                if isinstance(value, float):
                    bad[key] = math.nextafter(value, math.inf)  # one ulp
                else:
                    bad[key] = value + 1
                failures = run.check_references(w, run.DEFAULT_SEED,
                                                self.report_for(w, bad), self.reference)
                self.assertEqual(len(failures), 1, (w, key))
                self.assertIn(key, failures[0])

    def test_missing_and_extra_outputs_are_rejected(self):
        good = self.reference["workloads"]["flood_dense"][str(run.DEFAULT_SEED)]
        missing = {k: v for k, v in good.items() if k != "reception"}
        self.assertEqual(run.reference_mismatches(good, missing), ["reception"])
        extra = dict(good, surprise=1)
        self.assertEqual(run.reference_mismatches(good, extra), ["surprise"])

    def test_held_out_seed_is_checked_when_requested(self):
        w = "congestion_dcc"
        default = self.reference["workloads"][w][str(run.DEFAULT_SEED)]
        held = dict(self.reference["workloads"][w][str(run.HELD_OUT_SEED)])
        held["frames_sent"] += 1
        report = {"outputs": held, "reference_outputs": default}
        failures = run.check_references(w, run.HELD_OUT_SEED, report, self.reference)
        self.assertEqual(len(failures), 1)
        self.assertIn(f"seed {run.HELD_OUT_SEED}", failures[0])


class BenchmarkRunTest(unittest.TestCase):
    """Runs congestion_dcc, the quickest workload, for a second in each mode."""

    WORKLOAD = "congestion_dcc"

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("benchmark does not build here")

    def run_cli(self, trace):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", self.WORKLOAD,
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return proc.stdout.strip().splitlines()

    def test_every_metric_prints_with_its_unit(self):
        end_to_end, per_layer = declared_metrics()
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            lines = self.run_cli(trace)
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
            stamp = lines[0]
            for field in ("nproc=", "compiler=", "build_type=", "threads=", "reps=", "seed="):
                self.assertIn(field, stamp)
            for m in declared:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
                printed = [ln for ln in lines[1:-1] if ln.split()[1:2] == [m["name"]]]
                self.assertEqual(len(printed), 1, m["name"])
                self.assertEqual(printed[0].split()[3], m["unit"], printed[0])

    def test_traced_counts_equal_untraced(self):
        inputs = run.make_inputs(self.WORKLOAD, 0)
        e2e = run.run_binary(["--mode", "e2e", "--seconds", "1", "--inputs", inputs])
        traced = run.run_binary(["--mode", "trace", "--seconds", "1", "--inputs", inputs])
        self.assertEqual(e2e["failures"], [])
        self.assertEqual(traced["failures"], [])
        self.assertEqual(e2e["outputs"], traced["outputs"])
        exact = {"phy.frames_sent": "frames_sent", "phy.receptions": "receptions",
                 "phy.index_rebuilds": "index_rebuilds",
                 "phy.mac_transmitted": "mac_transmitted",
                 "phy.mac_backoff_retries": "mac_backoff_retries",
                 "phy.mac_queue_overflow": "mac_queue_overflow",
                 "phy.dcc_gated_drops": "dcc_gated_drops",
                 "attack.frames_flooded": "frames_flooded",
                 "attack.beacons_replayed": "beacons_replayed"}
        for metric, output in exact.items():
            self.assertEqual(traced["metrics"][metric]["value"], e2e["outputs"][output], metric)


if __name__ == "__main__":
    unittest.main()
