"""Dolan-Moré performance profiles.

For each problem p and solver s with cost t[p][s] (infinity on failure), the
ratio r[p][s] = t[p][s] / min_s' t[p][s'] measures distance from the best
solver, and the profile P_s(tau) is the fraction of problems with
r[p][s] <= tau.  The tau grid holds every distinct finite ratio, so the step
functions are exact rather than sampled.  A ``ProfileTable`` compares and
hashes by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, repeat
from typing import Mapping

import numpy as np

from .errors import ConfigError, EmptyTableError


@dataclass(frozen=True, eq=False)
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

    # problems x solvers; a missing entry is a failure
    t = np.array([list(map(costs[p].get, solvers, repeat(math.inf))) for p in problems],
                 dtype=float)
    bad = ~(t >= 0.0)  # nan or negative
    if bad.any():
        i, j = np.argwhere(bad)[0]  # the first in row-major order
        raise ConfigError(f"invalid cost {float(t[i, j])!r} for ({problems[i]!r}, {solvers[j]!r})")
    # abs: a -0.0 winner divides like 0.0, so every other ratio is +inf
    best = np.abs(t.min(axis=1, keepdims=True))
    with np.errstate(all="ignore"):  # t/0 and t/tiny are inf, inf/inf is masked
        r = np.where(np.isinf(t), math.inf, np.where(t == best, 1.0, t / best))
    # a set, not np.unique: np.unique imports numpy.ma, about 1 MB of peak RSS
    tau_grid = np.asarray(sorted(set(r[np.isfinite(r)].tolist()) | {1.0}))
    n = len(problems)
    curves = {s: np.searchsorted(np.sort(r[:, j]), tau_grid, side="right") / n
              for j, s in enumerate(solvers)}
    return ProfileTable(
        problems=problems,
        solvers=solvers,
        ratios=dict(zip(product(problems, solvers), r.ravel().tolist())),
        tau_grid=tau_grid,
        curves=curves,
    )
