#!/usr/bin/env python3
"""Unit tests for tools/perf_smoke.py, the BENCH_*.json gate.

Each case writes a small committed/fresh pair of reports to a temporary
directory and checks the gate's exit status. Run directly with
`python3 tests/perf_smoke_test.py` or through ctest (label unit).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "tools", "perf_smoke.py")

BASELINE = {
    "bench": "toy",
    "scale": 1,
    "kinds": {
        "ipis": "sim",
        "latency_usec": "sim",
        "events_per_sec": "host-higher",
        "lookup_ns": "host-lower",
        "host_ms": "info",
    },
    "results": {
        "baseline__t8": {"ipis": 97, "latency_usec": 455.146},
        "batched__t8": {"ipis": 92, "latency_usec": 320.068},
        "event_queue": {"host_ms": 22.9, "events_per_sec": 1000.0},
        "tlb_churn": {"host_ms": 16.4, "lookup_ns": 10.0},
    },
}


class PerfSmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            if isinstance(doc, str):
                handle.write(doc)
            else:
                json.dump(doc, handle)
        return path

    def gate(self, fresh, committed=BASELINE):
        """Exit status of the gate on (committed, fresh)."""
        result = subprocess.run(
            [sys.executable, GATE, self.write("committed.json", committed),
             self.write("fresh.json", fresh)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, check=False)
        return result.returncode

    def fresh(self):
        return copy.deepcopy(BASELINE)

    def test_identical_documents_pass(self):
        self.assertEqual(self.gate(self.fresh()), 0)

    def test_sim_value_off_by_a_thousandth_fails(self):
        doc = self.fresh()
        doc["results"]["batched__t8"]["latency_usec"] = 320.069
        self.assertEqual(self.gate(doc), 1)

    def test_sim_integer_off_by_one_fails(self):
        doc = self.fresh()
        doc["results"]["baseline__t8"]["ipis"] = 98
        self.assertEqual(self.gate(doc), 1)

    def test_host_metrics_within_tolerance_pass(self):
        doc = self.fresh()
        doc["results"]["event_queue"]["events_per_sec"] = 820.0
        doc["results"]["tlb_churn"]["lookup_ns"] = 12.4
        self.assertEqual(self.gate(doc), 0)

    def test_host_higher_outside_tolerance_fails(self):
        doc = self.fresh()
        doc["results"]["event_queue"]["events_per_sec"] = 790.0
        self.assertEqual(self.gate(doc), 1)

    def test_host_lower_outside_tolerance_fails(self):
        doc = self.fresh()
        doc["results"]["tlb_churn"]["lookup_ns"] = 12.6
        self.assertEqual(self.gate(doc), 1)

    def test_info_metric_is_not_gated(self):
        doc = self.fresh()
        doc["results"]["event_queue"]["host_ms"] = 1e6
        self.assertEqual(self.gate(doc), 0)

    def test_missing_cell_fails(self):
        doc = self.fresh()
        del doc["results"]["batched__t8"]
        self.assertEqual(self.gate(doc), 1)

    def test_extra_cell_fails(self):
        doc = self.fresh()
        doc["results"]["lazy-asid__t8"] = {"ipis": 102,
                                           "latency_usec": 417.45}
        self.assertEqual(self.gate(doc), 1)

    def test_missing_metric_fails(self):
        doc = self.fresh()
        del doc["results"]["baseline__t8"]["latency_usec"]
        self.assertEqual(self.gate(doc), 1)

    def test_changed_kind_fails(self):
        doc = self.fresh()
        doc["kinds"]["ipis"] = "info"
        self.assertEqual(self.gate(doc), 1)

    def test_bench_mismatch_is_bad_input(self):
        doc = self.fresh()
        doc["bench"] = "other"
        self.assertEqual(self.gate(doc), 2)

    def test_scale_mismatch_is_bad_input(self):
        doc = self.fresh()
        doc["scale"] = 2
        self.assertEqual(self.gate(doc), 2)

    def test_metric_without_kind_is_bad_input(self):
        doc = self.fresh()
        del doc["kinds"]["latency_usec"]
        self.assertEqual(self.gate(doc), 2)

    def test_unknown_kind_is_bad_input(self):
        doc = self.fresh()
        doc["kinds"]["ipis"] = "exact"
        self.assertEqual(self.gate(doc), 2)

    def test_document_without_kinds_is_bad_input(self):
        doc = self.fresh()
        del doc["kinds"]
        self.assertEqual(self.gate(doc), 2)

    def test_non_numeric_value_is_bad_input(self):
        doc = self.fresh()
        doc["results"]["baseline__t8"]["ipis"] = "97"
        self.assertEqual(self.gate(doc), 2)

    def test_malformed_json_is_bad_input(self):
        self.assertEqual(self.gate('{"bench": "toy", "results": {'), 2)


if __name__ == "__main__":
    unittest.main()
