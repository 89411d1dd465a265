#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py --validate (standard library only).

Run: python3 -B tools/test_bench_diff.py
"""

import contextlib
import copy
import io
import os
import sys
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(os.path.dirname(TOOLS), "results", "reference")
sys.path.insert(0, TOOLS)

import bench_diff  # noqa: E402

DOC = {
    "schema": "zka-bench-v1",
    "bench": "unit",
    "git_rev": "abc1234",
    "config": {},
    "entries": [{
        "label": "case",
        "samples": 1,
        "ns_op": {"mean": 1.0, "min": 1.0, "max": 1.0, "p50": 1.0,
                  "stddev": 0.0},
    }],
    "prof": {
        "enabled": True,
        "counters": {},
        "summary": [{"label": "round", "count": 2, "total_ns": 10,
                     "p50_ns": 5, "p99_ns": 5}],
    },
}


def with_dropped(dropped, summary=True):
    doc = copy.deepcopy(DOC)
    doc["prof"]["dropped_events"] = dropped
    if not summary:
        doc["prof"]["summary"] = []
    return doc


class ValidateTest(unittest.TestCase):

    def assert_valid(self, doc, path="doc.json"):
        bench_diff.validate(path, doc)

    def assert_rejected(self, doc):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                self.assertRaises(SystemExit) as caught:
            bench_diff.validate("doc.json", doc)
        self.assertEqual(caught.exception.code, 1)
        return stderr.getvalue()

    def test_committed_references_validate(self):
        names = sorted(n for n in os.listdir(REFERENCE)
                       if n.startswith("BENCH_") and n.endswith(".json"))
        self.assertTrue(names)
        for name in names:
            path = os.path.join(REFERENCE, name)
            with self.subTest(name=name):
                self.assert_valid(bench_diff.load(path), path)

    def test_doc_without_dropped_field_validates(self):
        self.assertNotIn("dropped_events", DOC["prof"])
        self.assert_valid(DOC)

    def test_doc_with_zero_drops_validates(self):
        self.assert_valid(with_dropped(0))

    def test_drops_without_summary_validate(self):
        # Nothing was summarised, so nothing undercounts.
        self.assert_valid(with_dropped(7, summary=False))

    def test_drops_with_summary_are_rejected(self):
        message = self.assert_rejected(with_dropped(73117))
        self.assertIn("73117", message)
        self.assertIn("undercounts", message)

    def test_malformed_dropped_field_is_rejected(self):
        for value in (-1, 1.5, "0", True, None):
            with self.subTest(value=value):
                self.assert_rejected(with_dropped(value))


if __name__ == "__main__":
    unittest.main()
