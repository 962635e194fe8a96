"""The benchmark's result contract, run end to end.

``perfbench/run.py`` ends every run with one JSON result line.  It must be
strict JSON (no bare ``NaN``: a per-layer span that a hot path stopped
calling reads as ``nan``), report ``"correct": true`` and carry only finite
metric values.  A broken hook can also end the run in a traceback; both
show here instead of in a benchmark run.
"""

import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riemqn import Point, SolverConfig, StepEval, inner, rayleigh_instance, search_step

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"result line is not strict JSON: bare {name}")


@functools.lru_cache(maxsize=None)
def _run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last, parse_constant=_reject_constant)


@pytest.mark.parametrize(
    "workload,trace",
    [
        ("rayleigh-grid", 0),
        ("rayleigh-grid", 1),
        pytest.param("offdiag-transports", 1, marks=pytest.mark.slow),
        pytest.param("rayleigh-large", 0, marks=pytest.mark.slow),
    ],
)
def test_result_line(workload, trace):
    result = _run_benchmark(workload, trace)
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name


# Per-layer counts of the traced rayleigh-grid block above (seed 0, 0.1 s).
# They are deterministic, so a wrapper added to the hot path, or a construction
# that skips the class's __post_init__, changes one of them.  tangents_per_iter
# reads 0 since grad returns its array and trace rows hold arrays (1.0350 when
# each gradient was a Tangent, 5.7107 when every vector of an iteration was one).
HOT_PATH_COUNTS = {
    "manifolds.point_checks_per_iter": 1.2067961165048544,
    "manifolds.tangents_per_iter": 0.0,
    "problems.cost.calls_per_iter": 1.213106796116505,
    "linesearch.probes_per_step": 1.2063106796116505,
}


# Runs attempted and failed in the rayleigh-grid block above (seed 0, 0.1 s).
# A change that makes more runs fail shows here before it shows in the benchmark.
RUN_COUNTS = {"attempted": 14, "failed": 0}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_counts(trace):
    result = _run_benchmark("rayleigh-grid", trace)
    assert {name: result[name] for name in RUN_COUNTS} == RUN_COUNTS


# The same counts for the traced offdiag-transports block above, the only workload
# that runs the oblique maps.
OFFDIAG_RUN_COUNTS = {"attempted": 15, "failed": 0}


@pytest.mark.slow
def test_offdiag_run_counts():
    result = _run_benchmark("offdiag-transports", 1)
    assert {name: result[name] for name in OFFDIAG_RUN_COUNTS} == OFFDIAG_RUN_COUNTS


# The same counts for the untraced rayleigh-large block above: one Sphere(1000)
# instance, on which every one of the 14 solvers converges.
LARGE_RUN_COUNTS = {"attempted": 14, "failed": 0}


@pytest.mark.slow
def test_large_run_counts():
    result = _run_benchmark("rayleigh-large", 0)
    assert {name: result[name] for name in LARGE_RUN_COUNTS} == LARGE_RUN_COUNTS


def test_hot_path_counts():
    metrics = _run_benchmark("rayleigh-grid", 1)["metrics"]
    assert {name: metrics[name]["value"] for name in HOT_PATH_COUNTS} == HOT_PATH_COUNTS


def test_search_step_returns_a_point_on_the_problem_manifold():
    # the benchmark's gate reads x_new.manifold and x_new.ambient of the last step
    inst = rayleigh_instance(12, seed=3)
    x = inst.initial_point()
    g = inst.grad(x)
    cfg = SolverConfig().line_search
    ev = search_step(inst, x, -g, cfg, f0=inst.cost(x), g0=g, d0=inner(x, g, -g),
                     alpha0=cfg.alpha_init)
    assert isinstance(ev, StepEval)
    assert isinstance(ev.x_new, Point)
    assert ev.x_new.manifold == inst.manifold
    assert isinstance(ev.x_new.ambient, np.ndarray)
