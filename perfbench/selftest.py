"""Self-tests of the benchmark harness (not part of the repository's tests).

    python3 perfbench/selftest.py

They check that op lists are reproducible and seeded, that the ``sweep``
grid matches what ``detrec verify all`` runs, that wrong answers are
counted as failures, that a slow spell of the machine is scaled out of
the op times, that traced self times fit in the traced wall time,
that ``BENCHMARK.json`` lists exactly the workloads defined here, and that
the harness refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from oracle import Oracle, homogeneous, schur  # noqa: E402
from workloads import WORKLOADS, round_ops, sweep_ops  # noqa: E402


def _replies(ops: list[dict]) -> list[tuple[int, dict]]:
    runner = worker.Runner(ops)
    return [(i, runner.run(i)) for i in range(len(ops))]


class OpLists(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in WORKLOADS:
            self.assertEqual(round_ops(workload, 7), round_ops(workload, 7), workload)

    def test_other_seed_changes_seeded_parts(self):
        for workload in WORKLOADS:
            self.assertNotEqual(round_ops(workload, 7), round_ops(workload, 8), workload)

    def test_rounds_hold_enough_ops_for_p90(self):
        # op_p90_ms is taken over the ops of a round: ten must lie beyond it
        for workload in WORKLOADS:
            self.assertGreaterEqual(len(round_ops(workload, 1)), 100, workload)

    def test_sweep_grid_matches_verify_all(self):
        seed = 5
        proc = subprocess.run(
            [sys.executable, "-m", "detrec", "verify", "all", "--max-n", "30",
             "--seed", str(seed)],
            capture_output=True, text=True, env=run.hermetic_env(), check=True)
        reports = [json.loads(line) for line in proc.stdout.splitlines()]
        self.assertEqual([(r["identity"], r["params"]) for r in reports],
                         [(op["identity"], op["params"]) for op in sweep_ops(seed)])


class Oracles(unittest.TestCase):
    def test_canonical_text(self):
        self.assertEqual(homogeneous(2, 2), "x0^2 + x0*x1 + x1^2")
        self.assertEqual(schur((1, 1), 3), "x0*x1 + x0*x2 + x1*x2")

    def test_planted_wrong_answers_count_as_failed(self):
        ops = sweep_ops(0)[:3] + round_ops("numeric-det", 0)[:3]
        replies = _replies(ops)
        oracle = Oracle()
        self.assertEqual(run.count_failed(ops, replies, oracle), 0)
        verify = next(k for k, op in enumerate(ops) if op["kind"] == "verify")
        other = next(k for k, op in enumerate(ops) if op["kind"] != "verify")
        lhs, rhs, _ = replies[verify][1]["out"]
        planted = list(replies)
        planted[other] = (other, {"ms": 1.0, "out": "42"})
        self.assertEqual(run.count_failed(ops, planted, oracle), 1)
        planted[verify] = (verify, {"ms": 1.0, "out": [lhs, rhs, False]})
        self.assertEqual(run.count_failed(ops, planted, oracle), 2)
        planted.append((0, {"ms": 1.0, "error": "ValueError: boom"}))
        self.assertEqual(run.count_failed(ops, planted, oracle), 3)


class Tracing(unittest.TestCase):
    def test_self_times_fit_in_wall_time(self):
        ops = sweep_ops(0)[:40] + round_ops("cli-enumerate", 0)[:10]
        runner = worker.Runner(ops)
        runner.set_tracing(True)
        try:
            started = time.perf_counter()
            for i in range(len(ops)):
                self.assertIn("out", runner.run(i))
            wall_ms = (time.perf_counter() - started) * 1e3
            report = runner.tracer.report()
        finally:
            runner.set_tracing(False)
        functions = report["functions"]
        self.assertIn("poly.mul", functions)
        self.assertIn("cli.main", functions)
        self.assertEqual(functions["bench.op"]["calls"], len(ops))
        self.assertLessEqual(sum(f["self_ms"] for f in functions.values()), wall_ms)


class Scaling(unittest.TestCase):
    def test_slow_spell_is_scaled_out(self):
        # two ops, each run six times at full speed and six at half speed
        fast, slow = run.REFERENCE_MS, 2 * run.REFERENCE_MS
        executions = []
        for i in (0, 1):
            executions += [(i, {"ms": 10.0, "ref_ms": fast})] * 6
            executions += [(i, {"ms": 20.0, "ref_ms": slow})] * 6
        latencies = run.op_latencies(run.scaled(executions))
        self.assertEqual(sorted(latencies), [0, 1])
        for ms in latencies.values():
            self.assertAlmostEqual(ms, 10.0)


class Contract(unittest.TestCase):
    def test_every_listed_workload_has_a_generator(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_refuses_to_run_without_the_program(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
