"""Correctness gate and behaviour digest of one benchmark pass.

The gate runs outside every timed span.  It fails the benchmark on any
breach, so a wrong answer is never reported as a speed:

* every (instance, solver) pair of the grid ran exactly once, and the row
  ``runs.csv`` holds for it is what ``solve`` returned;
* every run has a finite ``final_f <= f(x0)``, a final iterate on the
  manifold whose cost is ``final_f``, and a converged flag that agrees with
  its gradient norm and failure reason;
* a converged Rayleigh run satisfies acceptance criterion 1,
  ``final_f - lambda_min(A) <= 1e-8 * (1 + |lambda_min|)``, with lambda_min
  from ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from riemqn.solver import solver_id

OPTIMALITY_TOL = 1e-8
POINT_TOL = 1e-12
COST_TOL = 1e-12


class GateError(Exception):
    pass


@dataclass(frozen=True)
class Reference:
    f0: float
    lambda_min: float | None  # Rayleigh instances only


def references(instances) -> dict[int, Reference]:
    """Per instance seed: f(x0) and, for Rayleigh, the smallest eigenvalue."""
    refs = {}
    for inst in instances:
        lam = None
        if inst.kind == "rayleigh":
            lam = float(np.linalg.eigvalsh(inst.matrix)[0])
        refs[inst.seed] = Reference(f0=inst.cost(inst.initial_point()), lambda_min=lam)
    return refs


def read_rows(runs_csv: Path) -> list[dict]:
    with open(runs_csv, newline="") as fh:
        return list(csv.DictReader(fh))


def digest(rows: list[dict]) -> str:
    """sha256 of the deterministic runs.csv columns (all but time_ms), in file order."""
    h = hashlib.sha256()
    if rows:
        h.update((",".join(k for k in rows[0] if k != "time_ms") + "\n").encode())
    for row in rows:
        h.update((",".join(v for k, v in row.items() if k != "time_ms") + "\n").encode())
    return h.hexdigest()


def check(runs, rows: list[dict], refs: dict[int, Reference], config) -> None:
    """Raise GateError on the first breach.

    ``runs`` are the ``tracer.Run`` records of one pass over the
    ``riemqn.bench.BenchConfig`` ``config``, ``rows`` its runs.csv.
    """
    seed_base, tol = config.seed_base, config.solvers[0].tol
    expected = {(seed - seed_base, sid) for seed in refs for sid in config.solver_ids}
    by_key = {}
    for run in runs:
        key = (run.problem.seed - seed_base, solver_id(run.cfg))
        if key in by_key:
            raise GateError(f"run {key} was solved twice")
        by_key[key] = run
    if set(by_key) != expected:
        missing = sorted(expected - set(by_key))[:3]
        raise GateError(f"grid incomplete: {len(by_key)} of {len(expected)} runs, missing {missing}")
    if len(rows) != len(expected):
        raise GateError(f"runs.csv has {len(rows)} rows, expected {len(expected)}")

    for row in rows:
        key = (int(row["instance"]), row["solver"])
        if key not in by_key:
            raise GateError(f"runs.csv row {key} matches no run")
        res = by_key[key].result
        reason = res.failure_reason.value if res.failure_reason else ""
        if (
            row["converged"] != str(int(res.converged))
            or row["iters"] != str(res.iters)
            or row["final_f"] != f"{res.final_f:.17g}"
            or row["final_gnorm"] != f"{res.final_gnorm:.17g}"
            or row["failure_reason"] != reason
        ):
            raise GateError(f"runs.csv row {key} differs from the solve result")

    for key, run in sorted(by_key.items()):
        _check_run(key, run, refs[run.problem.seed], tol)


def _check_run(key, run, ref: Reference, tol: float) -> None:
    res, problem, x = run.result, run.problem, run.final_x
    f = res.final_f
    if not math.isfinite(f):
        raise GateError(f"{key}: final_f is not finite ({f!r})")
    if not f <= ref.f0:
        raise GateError(f"{key}: final_f {f!r} exceeds f(x0) {ref.f0!r}")
    if x is None or x.manifold != problem.manifold:
        raise GateError(f"{key}: final iterate missing or on the wrong manifold")
    defect = problem.manifold.point_defect(np.asarray(x.ambient))
    if not defect <= POINT_TOL:
        raise GateError(f"{key}: final iterate is off the manifold by {defect:.3e}")
    f_x = problem.cost(x)
    if not abs(f_x - f) <= COST_TOL * (1.0 + abs(f)):
        raise GateError(f"{key}: final_f {f!r} is not the cost {f_x!r} of the final iterate")
    if res.converged != (res.failure_reason is None):
        raise GateError(f"{key}: converged={res.converged} with failure {res.failure_reason}")
    if res.converged and not res.final_gnorm < tol:
        raise GateError(f"{key}: converged with gradient norm {res.final_gnorm:.3e}")
    if res.converged and ref.lambda_min is not None:
        lam = ref.lambda_min
        if not f - lam <= OPTIMALITY_TOL * (1.0 + abs(lam)):
            raise GateError(f"{key}: converged to {f!r}, but lambda_min is {lam!r}")
