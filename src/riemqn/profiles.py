"""Dolan-Moré performance profiles.

For each problem p and solver s with cost t[p][s] (infinity on failure), the
ratio r[p][s] = t[p][s] / min_s' t[p][s'] measures distance from the best
solver, and the profile P_s(tau) is the fraction of problems with
r[p][s] <= tau.  The tau grid holds every distinct finite ratio, so the step
functions are exact rather than sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, EmptyTableError


@dataclass(frozen=True)
class ProfileTable:
    problems: tuple[str, ...]
    solvers: tuple[str, ...]
    ratios: dict
    tau_grid: np.ndarray
    curves: dict

    def value(self, solver: str, tau: float) -> float:
        """Exact step-function value P_s(tau)."""
        if solver not in self.solvers:
            raise KeyError(solver)
        hits = sum(1 for p in self.problems if self.ratios[(p, solver)] <= tau)
        return hits / len(self.problems)

    def to_csv(self) -> str:
        lines = ["tau," + ",".join(self.solvers)]
        for i, tau in enumerate(self.tau_grid):
            vals = ",".join(f"{self.curves[s][i]:.17g}" for s in self.solvers)
            lines.append(f"{tau:.17g},{vals}")
        return "\n".join(lines) + "\n"


def performance_profile(costs: Mapping[str, Mapping[str, float]]) -> ProfileTable:
    """Build the profile table from a nested problem -> solver -> cost map.

    Failures are encoded as ``inf``; a missing (problem, solver) entry counts
    as a failure.  Costs must otherwise be positive.
    """
    if not costs:
        raise EmptyTableError("no problems in the cost table")
    problems = tuple(sorted(costs))
    solvers = tuple(sorted({s for row in costs.values() for s in row}))
    if not solvers:
        raise EmptyTableError("no solvers in the cost table")

    ratio_map: dict = {}
    for p in problems:
        row = costs[p]
        ts = {}
        for s in solvers:
            t = float(row.get(s, math.inf))
            if math.isnan(t) or t < 0.0:
                raise ConfigError(f"invalid cost {t!r} for ({p!r}, {s!r})")
            ts[s] = t
        best = min(ts.values())
        for s in solvers:
            t = ts[s]
            if math.isinf(t):
                ratio_map[(p, s)] = math.inf
            elif t == best:
                ratio_map[(p, s)] = 1.0
            elif best == 0.0:
                # a zero-cost winner makes every other ratio unbounded
                ratio_map[(p, s)] = math.inf
            else:
                ratio_map[(p, s)] = t / best

    finite = sorted({r for r in ratio_map.values() if math.isfinite(r)} | {1.0})
    tau_grid = np.asarray(finite)
    curves = {}
    n = len(problems)
    for s in solvers:
        rs = np.asarray([ratio_map[(p, s)] for p in problems])
        curves[s] = np.asarray([(rs <= tau).sum() / n for tau in tau_grid])
    return ProfileTable(
        problems=problems,
        solvers=solvers,
        ratios=ratio_map,
        tau_grid=tau_grid,
        curves=curves,
    )
