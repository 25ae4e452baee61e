"""The benchmark's own checks.

    python3 perfbench/selftest.py        # from the repository root

Shows that the output check catches a tampered row, that the trace
analysis accounts for every nanosecond, that the import-time parser
reads ``-X importtime`` output, and that the benchmark fails cleanly
where the program's sources are missing.  Scratch files live under
``perfbench/_work``.
"""

from __future__ import annotations

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
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import sample  # noqa: E402
import tracing  # noqa: E402


def _scratch() -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(dir=WORK, prefix="selftest-")


class OutputCheck(unittest.TestCase):
    def test_one_ulp_changes_the_digest(self):
        row = {"algorithm": "HoLM", "makespan_s": 123.456}
        reference = [sample.row_digest(row)]
        self.assertTrue(sample.check_rows([dict(row)], reference))
        tampered = dict(row, makespan_s=math.nextafter(123.456, math.inf))
        self.assertFalse(sample.check_rows([tampered], reference))
        self.assertFalse(sample.check_rows([row, row], reference))

    def test_tampered_reference_fails_every_point(self):
        """A real sample against a reference with one row changed."""
        tmp = _scratch()
        try:
            with open(os.path.join(HERE, "reference", "robustness-pool.json")) as fh:
                reference = json.load(fh)
            results = {}
            for label, rows in (
                ("clean", reference["rows"]),
                ("tampered", ["0" * 64] + reference["rows"][1:]),
            ):
                ref_path = os.path.join(tmp, f"{label}-ref.json")
                with open(ref_path, "w") as fh:
                    json.dump({"rows": rows}, fh)
                cache = os.path.join(tmp, f"{label}-cache")
                out = os.path.join(tmp, f"{label}.json")
                env = dict(os.environ, REPRO_CACHE_DIR=cache,
                           PYTHONPATH=os.path.join(ROOT, "src"))
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "sample.py"),
                     "--workload", "robustness-pool", "--seed", "0",
                     "--cache-dir", cache, "--reference", ref_path,
                     "--out", out],
                    env=env, cwd=ROOT, check=True, timeout=120,
                )
                with open(out) as fh:
                    results[label] = json.load(fh)
            self.assertEqual(results["clean"]["failed"], 0)
            tampered = results["tampered"]
            self.assertEqual(
                tampered["attempted"], (1 + sample.RESUME_PASSES) * 144
            )
            self.assertEqual(tampered["failed"], tampered["attempted"])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _span(sid, parent, name, start, end, attrs=None, side="main", pid=1):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "attrs": attrs, "side": side, "pid": pid}


class TraceAnalysis(unittest.TestCase):
    def test_self_times_add_up_and_fallbacks_count(self):
        spans = [
            _span(0, None, "runner.sweep", 0, 1000, {"pass": "cold"}),
            _span(1, 0, "runner.backends.map", 100, 600),
            _span(2, 1, "experiments.evaluate_batch", 110, 590),
            _span(3, 2, "engine.batch.run_batch", 120, 580, {"items": 4}),
            _span(4, 3, "engine.run_scheduler", 130, 200),
            _span(5, 3, "engine.run_scheduler", 250, 300),
            _span(6, 0, "runner.cache.put_many", 650, 900),
            _span(7, 6, "runner.cache.fsync", 700, 800),
            _span(0, None, "engine.run_scheduler", 0, 50, side="worker", pid=2),
        ]
        out = tracing.analyze(spans, {"cold": 1000e-9}, jobs=1, task_seconds=0)
        self.assertAlmostEqual(out["residual"]["cold"], 0.0, places=15)
        m = out["metrics"]
        self.assertEqual(m["engine.batch.items"], 4)
        self.assertEqual(m["engine.batch.fallback_items"], 2)
        self.assertEqual(m["engine.batch.vectorized_ratio"], 0.5)
        self.assertEqual(m["engine.run_scheduler.calls"], 3)
        # run_batch self: 460 ns minus its children's 120 ns.
        self.assertAlmostEqual(
            out["table"]["main|cold|engine.batch.run_batch"]["self_s"], 340e-9
        )
        self.assertAlmostEqual(m["runner.sweep.self_s"], 250e-9)
        self.assertAlmostEqual(m["runner.cache.put_many_s"], 250e-9)
        self.assertEqual(m["runner.cache.fsync.count"], 1)
        self.assertIn("worker|worker|engine.run_scheduler", out["table"])

    def test_parse_importtime(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   numpy.core",
            "import time:       200 |        300 | numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:       100 |        150 |   scipy",
            "import time:       400 |        400 |   scipy.optimize",
            "import time:        30 |        580 | repro.core",
            "import time:        20 |        900 | repro",
        ])
        out = tracing.parse_importtime(text)
        self.assertAlmostEqual(out["import.numpy_s"], 300e-6)
        self.assertAlmostEqual(out["import.scipy_s"], 550e-6)
        self.assertAlmostEqual(out["import.repro_s"], 50e-6)
        self.assertAlmostEqual(out["import.total_s"], 1480e-6)


class Contract(unittest.TestCase):
    def test_fails_without_program_sources(self):
        tmp = _scratch()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(
                HERE, os.path.join(tmp, "perfbench"),
                ignore=shutil.ignore_patterns("_work", "__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig10-fast",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
