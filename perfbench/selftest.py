"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They use small blocks of their own (a few seconds in all), not the
benchmark's workloads, and write only under ``.perfbench/``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import metrics  # noqa: E402
from gauge import Gauge, Kernel  # noqa: E402
from harness import Measurement, measure  # noqa: E402
from riemqn.solver import solver_id  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

WORK = ROOT / ".perfbench" / f"selftest-{os.getpid()}"

SMALL_RAYLEIGH = Workload(
    name="small-rayleigh",
    kind="rayleigh",
    dims={"n": 30},
    seed_base=20250,
    solvers=("broyden_bfgs_lf_xi0.1_dr", "broyden_preconvex_powell_xi1_dr", "dy_dr", "hz_dr"),
    instance_seconds=1.0,
    why="test block",
)
SMALL_OFFDIAG = Workload(
    name="small-offdiag",
    kind="offdiag",
    dims={"n": 6, "p": 3, "N": 2},
    seed_base=30500,
    solvers=("broyden_bfgs_lf_xi0.1_proj", "hz_invret", "dy_dr"),
    instance_seconds=1.0,
    why="test block",
)
DETERMINISTIC = (
    "cost_evals_per_iter",
    "grad_evals_per_iter",
    "iters_per_solve",
    "failed_frac",
    "linesearch.probes_per_step",
)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class DeterministicCounts(unittest.TestCase):
    def test_counts_repeat_and_survive_tracing(self):
        for workload in (SMALL_RAYLEIGH, SMALL_OFFDIAG):
            with self.subTest(workload=workload.name):
                first = measure(workload, 1, 2.0, True, WORK / f"{workload.name}-a")
                second = measure(workload, 1, 2.0, False, WORK / f"{workload.name}-b")
                self.assertEqual(first.digest, second.digest)
                layers = first.layers
                self.assertEqual(
                    layers["problems.cost.calls_per_iter"], first.e2e["cost_evals_per_iter"]
                )
                self.assertEqual(
                    layers["problems.grad.calls_per_iter"], first.e2e["grad_evals_per_iter"]
                )
                self.assertEqual(
                    layers["linesearch.probes_per_step"], first.e2e["linesearch.probes_per_step"]
                )
                for name in DETERMINISTIC:
                    self.assertEqual(first.e2e[name], second.e2e[name], name)

    def test_tracer_restores_every_attribute(self):
        import riemqn.linesearch
        import riemqn.manifolds
        import riemqn.problems
        import riemqn.solver

        measure(SMALL_RAYLEIGH, 2, 1.0, True, WORK / "restore")
        self.assertIs(riemqn.solver.inner, riemqn.manifolds.inner)
        self.assertIs(riemqn.linesearch.transport_direction, riemqn.manifolds.transport_direction)
        self.assertIs(riemqn.solver.search_step, riemqn.linesearch.search_step)
        self.assertNotIn("__wrapped__", vars(riemqn.problems.RayleighInstance.cost))


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        meas = Measurement(SMALL_RAYLEIGH, 3, 2.0, WORK / "gate")
        cls.config, instances = meas.setup()
        cls.instances = {inst.seed: inst for inst in instances}
        cls.refs = gate.references(instances)
        probe, _, cls.rows = meas.measured_pass(cls.config, "pass")
        cls.runs = probe.runs

    def check(self, runs=None, rows=None):
        gate.check(runs or self.runs, rows or self.rows, self.refs, self.config)

    def tampered(self, index: int, **result_fields):
        """Copies of runs and rows with run ``index`` (and its row) changed."""
        runs = list(self.runs)
        run = runs[index]
        result = dataclasses.replace(run.result, **result_fields)
        runs[index] = dataclasses.replace(run, result=result)
        rows = [dict(r) for r in self.rows]
        key = (str(run.problem.seed - self.config.seed_base), solver_id(run.cfg))
        for row in rows:
            if (row["instance"], row["solver"]) == key:
                row.update(
                    converged=str(int(result.converged)),
                    final_f=f"{result.final_f:.17g}",
                    final_gnorm=f"{result.final_gnorm:.17g}",
                )
        return runs, rows

    def assertRejected(self, runs, rows, fragment: str):
        with self.assertRaises(gate.GateError) as ctx:
            self.check(runs, rows)
        self.assertIn(fragment, str(ctx.exception))

    def test_accepts_the_untampered_pass(self):
        self.check()

    def test_rejects_a_converged_run_above_lambda_min(self):
        index = next(i for i, r in enumerate(self.runs) if r.result.converged)
        run = self.runs[index]
        x0 = run.problem.initial_point()
        runs, rows = self.tampered(index, final_f=run.problem.cost(x0), final_gnorm=1e-9)
        runs[index] = dataclasses.replace(runs[index], final_x=x0)
        self.assertRejected(runs, rows, "lambda_min")

    def test_rejects_final_f_above_f_x0(self):
        runs, rows = self.tampered(0, final_f=self.refs[self.runs[0].problem.seed].f0 + 1.0)
        self.assertRejected(runs, rows, "exceeds f(x0)")

    def test_rejects_a_non_finite_final_f(self):
        runs, rows = self.tampered(0, final_f=math.nan)
        self.assertRejected(runs, rows, "not finite")

    def test_rejects_an_iterate_off_the_manifold(self):
        runs = list(self.runs)
        x = runs[0].final_x
        runs[0] = dataclasses.replace(
            runs[0], final_x=types.SimpleNamespace(manifold=x.manifold, ambient=1.001 * x.ambient)
        )
        self.assertRejected(runs, self.rows, "off the manifold")

    def test_rejects_final_f_that_is_not_the_final_cost(self):
        f = self.runs[0].result.final_f
        runs, rows = self.tampered(0, final_f=f - 1e-6 * (1.0 + abs(f)))
        self.assertRejected(runs, rows, "is not the cost")

    def test_rejects_a_tampered_runs_csv_row(self):
        rows = [dict(r) for r in self.rows]
        rows[0]["iters"] = str(int(rows[0]["iters"]) + 1)
        self.assertRejected(self.runs, rows, "differs from the solve result")

    def test_rejects_a_missing_run(self):
        self.assertRejected(self.runs[1:], self.rows, "grid incomplete")

    def test_rejects_a_converged_flag_without_a_small_gradient(self):
        index = next(i for i, r in enumerate(self.runs) if r.result.converged)
        runs, rows = self.tampered(index, final_gnorm=1.0)
        self.assertRejected(runs, rows, "converged with gradient norm")


class GaugeScaling(unittest.TestCase):
    def test_factor_is_the_reference_over_the_nearby_median(self):
        # five samples of 2, 4, 4, 8 and 8 ms, one a second
        ticks = iter([0.0, 0.002, 1.0, 1.004, 2.0, 2.004, 3.0, 3.008, 4.0, 4.008])
        gauge = Gauge(Kernel(small_steps=1, matvecs=0, reference_s=0.004), clock=lambda: next(ticks))
        for _ in range(5):
            gauge.sample()
        # between the third and fourth sample: the two on either side, 4, 4, 8, 8 ms
        self.assertAlmostEqual(gauge.factor(2.5, 2.6), 0.004 / 0.006)
        # before every sample: the first two, 2 and 4 ms
        self.assertAlmostEqual(gauge.factor(-1.0, -0.5), 0.004 / 0.003)
        # a span that holds samples uses them too: 2, 4, 4, 8, 8 ms
        self.assertAlmostEqual(gauge.factor(0.5, 2.5), 0.004 / 0.004)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_emitted_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(e["name"], e["unit"], e["better"], e["bound"]) for e in spec["end_to_end"]],
            [tuple(e) for e in metrics.END_TO_END],
        )
        self.assertEqual(
            [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]],
            list(metrics.PER_LAYER),
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            [w["why"] for w in spec["workloads"]], [w.why for w in WORKLOADS.values()]
        )

    def test_refuses_to_run_without_sources(self):
        bare = WORK / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            spec["command"] + ["--workload", "rayleigh-grid", "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
