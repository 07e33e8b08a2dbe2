#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_perfbench.py

Each case runs perfbench/run.py with short runs (well under a minute in
total) and checks what the benchmark promises: inputs depend on the seed
alone, counts repeat exactly, every declared metric is printed with its
unit, and unknown names are refused.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_cache = {}


def run(*args):
    """(exit code, '# key value' header dict, JSON result or None)."""
    if args in _cache:
        return _cache[args]
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    header = {}
    for line in p.stdout.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            header.setdefault(key, value.strip())
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    _cache[args] = (p.returncode, header, result)
    return _cache[args]


def short(workload, seed, trace=0):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
               "--trace", str(trace))


class Inputs(unittest.TestCase):
    def test_digest_follows_the_seed(self):
        for w in WORKLOADS:
            _, a, _ = short(w, 3)
            _, b, _ = short(w, 3, trace=1)
            _, c, _ = short(w, 4)
            self.assertEqual(a["input_digest"], b["input_digest"], w)
            self.assertNotEqual(a["input_digest"], c["input_digest"], w)


class Counts(unittest.TestCase):
    def test_error_rate_is_zero_and_repeats(self):
        for w in WORKLOADS:
            for seed in (3, 4):
                code, h, r = short(w, seed)
                self.assertEqual(code, 0, w)
                self.assertTrue(r["correct"], w)
                self.assertEqual(r["failed"], 0, w)
                self.assertTrue(h["error_rate"].startswith("0 (0 failed"), w)

    def test_gateway_counts_repeat_for_one_seed(self):
        _, a, _ = short("gateway", 3)
        _, b, _ = short("gateway", 3, trace=1)
        _, c, _ = short("gateway", 4)
        self.assertEqual(a["round_counts"], b["round_counts"])
        self.assertNotEqual(a["round_counts"], c["round_counts"])
        for key in ("compiles", "evictions", "shed"):
            self.assertIn(key + "=", a["round_counts"])


class Metrics(unittest.TestCase):
    def check(self, trace, declared):
        for w in WORKLOADS:
            code, _, r = short(w, 3, trace=trace)
            self.assertEqual(code, 0, w)
            self.assertGreaterEqual(r["attempted"], 1)
            got = r["metrics"]
            self.assertEqual(sorted(got), sorted(m["name"] for m in declared), w)
            for m in declared:
                self.assertEqual(got[m["name"]]["unit"], m["unit"], (w, m["name"]))
                self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_named_with_units(self):
        self.check(0, SPEC["end_to_end"])
        for w in WORKLOADS:
            _, _, r = short(w, 3)
            for m in SPEC["end_to_end"]:
                self.assertGreater(r["metrics"][m["name"]]["value"], 0, (w, m["name"]))

    def test_per_layer_metrics_named_with_units(self):
        self.check(1, SPEC["per_layer"])


class Usage(unittest.TestCase):
    def test_unknown_names_exit_2_without_a_result(self):
        for args in (("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"),
                     ("--workload", "gateway", "--seed", "1", "--seconds", "1", "--trace", "0",
                      "--metrics", "latency_p50_us,bogus"),
                     ("--workload", "gateway", "--seed", "1", "--seconds", "1", "--trace", "1",
                      "--metrics", "latency_p50_us")):
            code, _, r = run(*args)
            self.assertEqual(code, 2, args)
            self.assertIsNone(r, args)


if __name__ == "__main__":
    unittest.main()
