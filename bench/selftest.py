"""Self-tests of the benchmark's output gates.

    python3 bench/selftest.py

A gate must fail exactly the op whose output is wrong: one corrupted
coefficient in one verify-corpus file, or one missing or altered golden
entry, fails that op and no other.
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

import run
import workloads

WORK = workloads.ROOT / ".bench_work"
SPECS = [
    ("sym", 3),
    ("sym", 4),
    ("dihedral", 5),
    ("fixture", "a5"),
    ("product", ("sym", 3), ("fixture", "a5")),
]


class VerifyGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(dir=WORK)
        self.work = Path(self.tmp.name)
        self.corpus = self.work / "corpus"
        workloads.write_corpus(SPECS, self.corpus)
        self.ops = workloads.file_names(SPECS)

    def tearDown(self):
        self.tmp.cleanup()

    def failed_ops(self):
        runner = run.Runner(self.work)
        _, _, failures, _ = run.run_pass(runner, "verify-cyclotomic", 0, self.corpus, self.ops)
        return [f["op"] for f in failures]

    def test_clean_corpus_passes(self):
        self.assertEqual(self.failed_ops(), [])

    def test_corrupted_coefficient_fails_that_op(self):
        path = self.corpus / "d010.json"
        doc = json.loads(path.read_text())
        value = next(v for ch in doc["characters"] for v in ch["values"] if isinstance(v, dict))
        value["coeffs"][0][0] += 1
        path.write_text(json.dumps(doc))
        self.assertEqual(self.failed_ops(), ["d010.json"])


class ExploreGateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            cls.results = workloads.explore(SPECS, Path(tmp))
        cls.ops = [workloads.label(s) for s in SPECS]

    def failed_ops(self, golden):
        return [f["op"] for f in workloads.explore_gate(self.ops, self.results, golden)]

    def test_golden_results_pass(self):
        self.assertEqual(self.failed_ops(workloads.load_golden()), [])

    def test_missing_golden_entry_fails_that_op(self):
        golden = workloads.load_golden()
        del golden["D10"]
        self.assertEqual(self.failed_ops(golden), ["D10"])

    def test_altered_golden_value_fails_that_op(self):
        golden = workloads.load_golden()
        golden["S3xA5"]["k_min"] += 1
        self.assertEqual(self.failed_ops(golden), ["S3xA5"])


if __name__ == "__main__":
    workloads.use_source()
    WORK.mkdir(exist_ok=True)
    unittest.main()
