#!/usr/bin/env python3
"""Smoke tests of the replay benchmark: python3 perfbench/test_perfbench.py

Runs every workload at a seconds-scale size (--size-scale) and checks the
metric names and units against BENCHMARK.json, the read-back and
pass-through checks, and that the simulated metrics repeat exactly for a
seed and move with it.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SMOKE_SCALE = "0.4"
SIMULATED = ("wa", "sim_p50_us", "sim_p999_us", "read_amp")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace),
         "--size-scale", SMOKE_SCALE],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


def result(workload, seed, trace):
    proc = run(workload, seed, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


class ReplayBenchSmoke(unittest.TestCase):
    def check_names_and_units(self, res, declared):
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {k: v["unit"] for k, v in res["metrics"].items()})

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = result(w, 1, 0)
                b = result(w, 1, 0)
                c = result(w, 2, 0)
                self.check_names_and_units(a, BENCH["end_to_end"])
                for r in (a, b, c):
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                    for v in r["metrics"].values():
                        self.assertGreater(v["value"], 0)
                same = [a["metrics"][k]["value"] for k in SIMULATED]
                self.assertEqual(same, [b["metrics"][k]["value"]
                                        for k in SIMULATED])
                self.assertNotEqual(same, [c["metrics"][k]["value"]
                                           for k in SIMULATED])
                self.assertNotEqual(a["metrics"]["wa"]["value"],
                                    c["metrics"]["wa"]["value"])

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result(w, 1, 1)
                self.check_names_and_units(r, BENCH["per_layer"])
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                m = {k: v["value"] for k, v in r["metrics"].items()}
                self.assertGreater(m["obs.trace_overhead"], 0)
                self.assertGreater(m["obs.self_time_coverage"], 0.9)
                self.assertLessEqual(m["obs.self_time_coverage"], 1.0)

    def test_fails_without_sources(self):
        tmp_parent = os.path.join(ROOT, ".bench_build")
        os.makedirs(tmp_parent, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=tmp_parent)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 1, 0, cwd=tmp,
                       script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
