"""Self-checks of the kpz-tails benchmark at tiny input sizes.

Run from the repository root (takes a few seconds):

    python3 perfbench/check_bench.py

Checks that metric names are well formed, that the output parses as JSON
with exactly the declared metrics, that traced spans nest and their self
times add up, and that every correctness gate fails on a corrupted output.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

import run
import spans

workloads = run.import_workloads()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_run(name: str, trace: bool, seconds: float = 0.0):
    wl = workloads.WORKLOADS[name]
    return run.measure(wl, wl.build(True), 7, seconds, trace, spans.Tracer())


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]))
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(workloads.WORKLOADS))


class Output(unittest.TestCase):
    def test_result_parses_with_declared_metrics(self):
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                m = tiny_run(name, trace)
                buf = io.StringIO()
                with redirect_stdout(buf):
                    print(json.dumps(run.result(SPEC, m, [1.0], trace)))
                out = json.loads(buf.getvalue().splitlines()[-1])
                self.assertEqual(set(out),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(out["attempted"], 1)
                declared = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(out["metrics"]),
                                 {d["name"] for d in declared})
                for v in out["metrics"].values():
                    self.assertTrue(math.isfinite(v["value"]))

    def test_exit_2_without_program(self):
        run.WORK.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.WORK))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / run.BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                 "wedge_ensemble", "--seed", "1", "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


class Spans(unittest.TestCase):
    def test_nesting_and_self_times(self):
        m = tiny_run("bundle_smoke", True)
        tr = m.tracer.spans
        self.assertGreater(len(tr), 10)
        selfs = spans.self_times(tr)
        for s, st in zip(tr, selfs):
            self.assertGreaterEqual(st, 0.0)
            if s.parent is not None:
                p = tr[s.parent]
                self.assertEqual(p.run, s.run)
                self.assertLessEqual(p.start, s.start)
                self.assertLessEqual(s.end, p.end)
        roots = [i for i, s in enumerate(tr) if s.parent is None]
        for r in roots:
            total = sum(st for s, st in zip(tr, selfs) if s.run == tr[r].run)
            self.assertAlmostEqual(total, tr[r].duration, delta=1e-9)

    def test_self_time_subtracts_children(self):
        S = spans.Span
        tr = [S("bench", 0.0, 10.0, None, 0), S("a", 1.0, 4.0, 0, 0),
              S("b", 2.0, 3.0, 1, 0), S("a", 5.0, 6.0, 0, 0)]
        self.assertEqual(spans.self_times(tr), [6.0, 2.0, 1.0, 1.0])


class GatesFail(unittest.TestCase):
    def outputs(self, name):
        wl = workloads.WORKLOADS[name]
        inputs = wl.build(True)
        run.WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=run.WORK))
        try:
            raw = wl.call(inputs, 7, workdir)
            outcome = wl.judge(inputs, raw, workdir)
        finally:
            shutil.rmtree(workdir)
        return inputs, raw, outcome

    def test_bundle(self):
        self.assertFalse(workloads.bundle_gates({"status": "fail"})["run_all_pass"])
        self.assertTrue(workloads.bundle_gates({"status": "pass"})["run_all_pass"])

    def test_wedge(self):
        _, res, outcome = self.outputs("wedge_ensemble")
        self.assertTrue(all(outcome.gates.values()))
        bad = workloads.wedge_gates(dataclasses.replace(res, Z=res.Z + 1.0))
        self.assertFalse(any(bad.values()))

    def test_closed_forms(self):
        inputs, out, outcome = self.outputs("closed_forms")
        self.assertTrue(all(outcome.gates.values()), outcome.gates)
        mom = {key: dataclasses.replace(r, value=r.value * (1 + 1e-6))
               for key, r in out["moments"].items()}
        bad = workloads.moment_gates(mom)
        self.assertFalse(bad["closed_form_k1_T4"])
        mom = {key: dataclasses.replace(r, value=r.value * 100.0)
               for key, r in out["moments"].items()}
        self.assertFalse(any(workloads.moment_gates(mom).values()))
        rhs = {s: dataclasses.replace(e, value=e.value - 0.3)
               for s, e in out["rhs"].items()}
        self.assertFalse(any(workloads.airy_gates(rhs).values()))
        g = out["gibbs"]
        n = inputs["gibbs_n"]
        bad = workloads.gibbs_gates(dataclasses.replace(g, n_accepted=n - 1), n)
        self.assertFalse(bad["gibbs_accepted"])
        bad = workloads.gibbs_gates(
            dataclasses.replace(g, mean_weight=g.mean_weight + 0.2), n)
        self.assertFalse(bad["gibbs_rate"])

    def test_output_identity(self):
        calls = iter(range(10**6))
        fake = workloads.Workload(
            "fake", lambda tiny: None, lambda inp, seed, wd: next(calls),
            lambda inp, raw, wd: workloads.Outcome({}, str(raw % 2)))
        m = run.measure(fake, None, 0, 0.01, False, spans.Tracer())
        self.assertGreaterEqual(len(m.walls[False]), 2)
        self.assertEqual(m.failed, len(m.walls[False]) // 2)

    def test_stored_digest(self):
        run.WORK.mkdir(exist_ok=True)
        store = Path(tempfile.mkdtemp(dir=run.WORK)) / "digests.json"
        try:
            self.assertIsNone(run.stored_digest_matches(store, "k", "a"))
            self.assertTrue(run.stored_digest_matches(store, "k", "a"))
            self.assertFalse(run.stored_digest_matches(store, "k", "b"))
            self.assertIsNone(run.stored_digest_matches(store, "k2", "b"))
        finally:
            shutil.rmtree(store.parent)


if __name__ == "__main__":
    unittest.main()
