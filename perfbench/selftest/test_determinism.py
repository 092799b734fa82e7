#!/usr/bin/env python3
"""Determinism self-test of the benchmark's input generation.

    python3 perfbench/selftest/test_determinism.py

Run it from the repository root; it builds the benchmark program like
run.py does.
For each workload:
  - the same seed gives byte-identical .mlk text, edit scripts, query list
    and read streams, and identical exact counts (kernel counters, the
    commit probe's re-tabulated fraction and WAL bytes per commit);
  - a second seed gives different inputs;
  - a short run on the second seed answers everything correctly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

FILES = ("input.mlk", "edits.txt", "queries.txt", "reads.txt", "counts.json")
SEED, OTHER_SEED = 11, 12


def read_all(directory):
    out = {}
    for name in FILES:
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(os.path.join(run.ROOT, ".bench_build"), exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".bench_build"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def dump(self, workload, seed, tag):
        out = os.path.join(self.tmp, "%s-%d-%s" % (workload, seed, tag))
        subprocess.run([run.BINARY, "--workload", workload, "--seed", str(seed),
                        "--dump-inputs", out,
                        "--work-dir", out + ".work"], check=True)
        return read_all(out)

    def check_workload(self, workload):
        first = self.dump(workload, SEED, "a")
        again = self.dump(workload, SEED, "b")
        for name in FILES:
            self.assertEqual(first[name], again[name],
                             "%s: %s differs for one seed" % (workload, name))
        counts = json.loads(first["counts.json"])
        self.assertGreater(counts["core.entries_computed"], 0)
        self.assertGreater(counts["service.wal_bytes_per_commit"], 0)

        other = self.dump(workload, OTHER_SEED, "c")
        for name in ("edits.txt", "queries.txt"):
            self.assertNotEqual(first[name], other[name],
                                "%s: %s ignores the seed" % (workload, name))
        if workload == "cold_dense":
            self.assertNotEqual(first["input.mlk"], other["input.mlk"])
        else:
            self.assertNotEqual(first["reads.txt"], other["reads.txt"])

        proc = subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", str(OTHER_SEED),
             "--seconds", "1", "--trace", "0",
             "--work-dir", os.path.join(self.tmp, workload + ".run")],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(proc.returncode, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_read_zipf(self):
        self.check_workload("read_zipf")

    def test_edit_churn(self):
        self.check_workload("edit_churn")

    def test_cold_dense(self):
        self.check_workload("cold_dense")


if __name__ == "__main__":
    unittest.main()
