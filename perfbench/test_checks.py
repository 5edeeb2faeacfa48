"""Each workload's output check accepts the program's real output and
rejects a tampered copy of it.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_program()


def _bump_first_value(doc):
    doc["bases"][0]["value"] += 1


def _drop_last_basis(doc):
    doc["bases"].pop()


def _bump_first_circuit(doc, key="circuits"):
    entries = doc[key][0]["entries"]
    i = next(k for k, e in enumerate(entries) if e != "inf")
    entries[i] += 1


TAMPER = {
    "cross-check": lambda doc: doc.update(agree=False),
    "verify": lambda doc: doc.update(ok=False),
    "valuation": _bump_first_value,
    "bases": _drop_last_basis,
    "circuits": _bump_first_circuit,
    "cocircuits": lambda doc: _bump_first_circuit(doc, "cocircuits"),
    "minor": lambda doc: doc.update(rank=doc["rank"] + 1),
    "flock": lambda doc: doc.update(g=doc["g"] + 1),
}


class TamperedOutputFails(unittest.TestCase):
    def setUp(self):
        self.directory = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.directory)

    def check_first_instance(self, name):
        workload = workloads.WORKLOADS[name](1)
        inst = workload.instances[0]
        paths = run.write_inputs(workload, self.directory)
        runner = run.Runner(CLI, workload, paths, self.directory)
        for op in inst.ops:
            argv = [op[0], paths[inst.name], "--format", "json"] + op[1:]
            _, code, out, _ = run.run_op(CLI, argv)
            workloads.check_output(name, inst, op, code, out, runner.reference_run)
            doc = json.loads(out)
            TAMPER[op[0]](doc)
            with self.subTest(op=op):
                with self.assertRaises(workloads.CheckFailed):
                    workloads.check_output(name, inst, op, code, json.dumps(doc),
                                           runner.reference_run)
                with self.assertRaises(workloads.CheckFailed):
                    workloads.check_output(name, inst, op, 2, out, runner.reference_run)
            # restore the cold document the warm checks compare against
            workloads.check_output(name, inst, op, code, out, runner.reference_run)

    def test_crosscheck_toric(self):
        self.check_first_instance("crosscheck-toric")

    def test_ideal_session(self):
        self.check_first_instance("ideal-session")

    def test_matrix_valuation(self):
        self.check_first_instance("matrix-valuation")

    def test_verify_box(self):
        self.check_first_instance("verify-box")


if __name__ == "__main__":
    unittest.main()
