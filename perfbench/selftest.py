"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

The smoke runs execute every workload with ``--seconds 1`` in both trace
modes, about 80 s on one core.  The file is not named ``test_*``
so that the package's pytest run does not collect it.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALLEST = ((0, 0), (3, 3), (1, 1), (2, 2))


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    def test_every_metric_reported_with_its_unit(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[kind]})

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            bare = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "verify_frame", "--seed", "1",
                         "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.ROOT / "src"))
        cls.pkg = run.fresh_import()

    def test_oracle_gate_trips_on_corrupted_digest(self):
        golden = workloads.load_golden()
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            sweep = workloads.OracleSweep(golden, Path(tmp))
            sweep.setup(self.pkg)
            result = sweep.run_op(SMALLEST)
            self.assertTrue(sweep.check(SMALLEST, result))
            key = workloads.config_key(SMALLEST)
            digest = golden["oracle_sweep"][key]["stdout"]
            golden["oracle_sweep"][key]["stdout"] = ("0" if digest[0] != "0" else "1") + digest[1:]
            self.assertFalse(sweep.check(SMALLEST, result))

    def test_tracer_wraps_every_binding_and_restores_it(self):
        def bindings():
            return {(name, attr): obj
                    for name, mod in sys.modules.items() if name.startswith("polytoric")
                    for attr, obj in vars(mod).items() if inspect.isfunction(obj)}

        before = bindings()
        with tracer.Tracer():
            for name, attr in (("toric", "buchberger"), ("verify", "buchberger"),
                               ("verify", "toric_generators"), ("cli", "toric_generators"),
                               ("cli", "binom_reduce"), ("verify", "binom_reduce")):
                key = (f"polytoric.{name}", attr)
                self.assertIs(getattr(sys.modules[key[0]], attr).__wrapped__, before[key])
        self.assertEqual(bindings(), before)


if __name__ == "__main__":
    unittest.main()
