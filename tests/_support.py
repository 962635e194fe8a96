"""Shared numerical oracles for the test suite.

These are deliberately independent routes: a cyclic Jacobi eigenvalue solver,
central finite differences through the retraction, a dense assembly of
the memoryless operator in explicit tangent coordinates, an
element-by-element performance profile, and Box-Muller draws made as one
block of whole-array numpy expressions.
"""

from __future__ import annotations

import math

import numpy as np

from riemqn import (
    ConfigError,
    EmptyTableError,
    Oblique,
    Point,
    ProfileTable,
    Sphere,
    Tangent,
    random_tangent,
    retract,
)
from riemqn.rng import SplitMix64


def single_block_normal(seed: int, count: int, skip: int = 0) -> np.ndarray:
    """``SplitMix64(seed).normal(count)`` after ``skip`` raw outputs, as one block.

    Every raw output of the draw is mixed in one array expression, the first
    half feeding the radii and the second half the angles, and the (cos, sin)
    pairs are interleaved into a buffer of ``2 * pairs`` draws.
    """
    if count == 0:
        return np.zeros(0)
    pairs = (count + 1) // 2
    seed_state = np.uint64(seed & ((1 << 64) - 1))
    idx = np.arange(skip + 1, skip + 2 * pairs + 1, dtype=np.uint64)
    z = seed_state + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    block = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
    u1 = (block[:pairs].astype(np.float64) + 1.0) * 2.0**-53
    u2 = block[pairs:].astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.sum(a * a) - np.sum(np.diag(a) ** 2), 0.0))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    return np.sort(np.diag(a))


def central_diff_directional(problem, x: Point, eta: Tangent, t: float = 1e-6) -> float:
    """(f(R_x(t*eta)) - f(R_x(-t*eta))) / (2t)."""
    fp = problem.cost(retract(x, t * eta))
    fm = problem.cost(retract(x, (-t) * eta))
    return (fp - fm) / (2.0 * t)


def tangent_basis(x: Point) -> list[np.ndarray]:
    """Orthonormal ambient representations of a tangent-space basis at x."""
    manifold = x.manifold
    if isinstance(manifold, Sphere):
        _, _, vh = np.linalg.svd(x.ambient.reshape(1, -1))
        return [vh[i] for i in range(1, manifold.n)]
    assert isinstance(manifold, Oblique)
    basis = []
    for j in range(manifold.p):
        _, _, vh = np.linalg.svd(x.ambient[:, j].reshape(1, -1))
        for i in range(1, manifold.n):
            mat = np.zeros(manifold.ambient_shape)
            mat[:, j] = vh[i]
            basis.append(mat)
    return basis


def to_coords(t: Tangent, basis: list[np.ndarray]) -> np.ndarray:
    return np.array([float(np.vdot(b, t.ambient)) for b in basis])


def from_coords(x: Point, coords: np.ndarray, basis: list[np.ndarray]) -> Tangent:
    amb = np.zeros(x.manifold.ambient_shape)
    for c, b in zip(coords, basis):
        amb = amb + c * b
    return Tangent(x, amb)


def curvature_healthy_pair(x: Point, rng: SplitMix64) -> tuple[Tangent, Tangent]:
    """Random (s, y) whose raw curvature <s, y> is comfortably positive.

    Keeps the memoryless operator well conditioned so that closed-form vs
    dense-assembly comparisons are not dominated by fp amplification.
    """
    s = random_tangent(x, rng)
    u = random_tangent(x, rng)
    ss = float(np.vdot(s.ambient, s.ambient))
    su = float(np.vdot(s.ambient, u.ambient))
    u_perp = u - (su / ss) * s
    a = 0.5 + 2.0 * float(rng.uniform(1)[0])
    b = 2.0 * float(rng.uniform(1)[0])
    return s, a * s + b * u_perp


def dense_memoryless_matrix(
    s_hat: np.ndarray, z_hat: np.ndarray, gamma: float, tau: float, phi: float
) -> np.ndarray:
    """Memoryless spectral-scaling Broyden operator assembled in coordinates.

    H = gamma*(I - z z'/zz) + (1/tau) * s s'/sz + phi*gamma*zz * w w'
    with w = s/sz - z/zz.
    """
    d = s_hat.shape[0]
    sz = float(s_hat @ z_hat)
    zz = float(z_hat @ z_hat)
    w = s_hat / sz - z_hat / zz
    h = gamma * (np.eye(d) - np.outer(z_hat, z_hat) / zz)
    h += np.outer(s_hat, s_hat) / (tau * sz)
    h += phi * gamma * zz * np.outer(w, w)
    return h


def layout(a: np.ndarray, order: str) -> np.ndarray:
    """The values of ``a`` laid out C-ordered ("C"), Fortran-ordered ("F") or as a transposed
    view of a C-ordered array ("T")."""
    if order == "F":
        return np.asfortranarray(a)
    if order == "T":
        return np.ascontiguousarray(a.T).T
    return np.ascontiguousarray(a)


def _ref_performance_profile(costs) -> ProfileTable:
    """The profile table built one (problem, solver) entry and one tau at a time."""
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

    tau_grid = np.asarray(sorted({r for r in ratio_map.values() if math.isfinite(r)} | {1.0}))
    curves = {}
    n = len(problems)
    for s in solvers:
        rs = np.asarray([ratio_map[(p, s)] for p in problems])
        curves[s] = np.asarray([(rs <= tau).sum() / n for tau in tau_grid])
    return ProfileTable(problems=problems, solvers=solvers, ratios=ratio_map,
                        tau_grid=tau_grid, curves=curves)
