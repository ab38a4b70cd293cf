#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program it measures).

    python3 perfbench/test_perfbench.py

Checks that op streams are a pure function of the seed, that a tiny run of
each workload passes the correctness gate and prints exactly the metrics
BENCHMARK.json declares, and that the benchmark refuses to run without the
program's sources. Builds the load generator first (see run.py).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

EXE = None
# Scratch space for the tests, inside the (ignored) build tree.
SCRATCH = ROOT / ".bench_build" / "test"


def setUpModule():
    global EXE
    EXE = run.build()
    SCRATCH.mkdir(parents=True, exist_ok=True)


def loadgen(*args, timeout=170):
    return subprocess.run([str(EXE), *args], capture_output=True, text=True,
                          timeout=timeout)


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


class StreamTest(unittest.TestCase):
    def dump(self, workload, seed):
        p = loadgen("--dump-stream", "--workload", workload, "--seed",
                    str(seed))
        self.assertEqual(p.returncode, 0, p.stderr)
        return p.stdout

    def test_same_seed_same_stream(self):
        for w in run.WORKLOADS:
            self.assertEqual(self.dump(w, 7), self.dump(w, 7), w)

    def test_other_seed_other_stream(self):
        for w in run.WORKLOADS:
            a, b = self.dump(w, 7), self.dump(w, 8)
            self.assertNotEqual(a, b, w)
            # Every stream differs, not just one of them.
            for line_a, line_b in zip(a.splitlines(), b.splitlines()):
                self.assertNotEqual(line_a, line_b, w)


class TinyRunTest(unittest.TestCase):
    """A tiny run of every workload passes the correctness gate."""

    def tiny(self, workload, trace):
        work = Path(tempfile.mkdtemp(prefix="tiny-", dir=SCRATCH))
        try:
            p = loadgen("--workload", workload, "--seed", "3", "--seconds",
                        "2", "--trace", str(trace), "--tiny", "--work-dir",
                        str(work / "w"), "--trace-dir", str(work / "t"))
            self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr)
            self.assertFalse((work / "w").exists(), "work dir left behind")
            result = json.loads(p.stdout.strip().splitlines()[-1])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_each_workload(self):
        e2e = declared("end_to_end")
        per_layer = declared("per_layer")
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.tiny(w, 0)
                self.assertEqual(list(metrics), e2e)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=w, trace=1):
                self.assertEqual(list(self.tiny(w, 1)), per_layer)


class PackageTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        """Alone with BENCHMARK.json, the command fails without a result."""
        with tempfile.TemporaryDirectory(prefix="alone-", dir=SCRATCH) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(HERE, Path(d) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "wire_read_mostly", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn("{", p.stdout)

    def test_declared_command(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
