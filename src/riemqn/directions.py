"""Search-direction engines.

The quasi-Newton engine is a memoryless spectral-scaling Broyden family with
an extra damping factor xi on its last term.  "Memoryless" means the inverse
Hessian approximation is rebuilt from the identity and the latest step data
every iteration, so the direction is a closed-form combination of the current
gradient g with the transported step s and a regularized gradient difference
z; no operator is ever stored.  Writing sz = <s, z>, zz = <z, z>, the
direction is

    eta = -gamma * g
          + gamma * [phi * <z,g>/sz - (1/(gamma*tau) + phi * zz/sz) * <s,g>/sz] * s
          + gamma * xi * [phi * <s,g>/sz + (1 - phi) * <z,g>/zz] * z

with sizing gamma, spectral scaling tau, and family parameter phi (phi = 0 is
DFP, phi = 1 is BFGS, phi > 1 the preconvex class).  z is produced from the
raw difference y by Li-Fukushima regularization or Powell damping, both of
which guarantee the curvature floor <s, z> >= nu_hat * |s|^2 (``DEFAULT_NU_HAT``).

Conjugate-gradient baselines use transported FR/DY/PRP/HS/HZ beta rules (HZ's mu
is 2, as in Hager & Zhang 2005) and share the same transported step data.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateStepError,
    DegenerateZError,
    OutOfHypothesisError,
)
from .manifolds import _dot


class ZMode(Enum):
    """How the curvature vector z is regularized.

    Each value is the code that solver ids and JSON configs use: Li-Fukushima
    ``lf`` or Powell damping ``powell``.
    """

    LI_FUKUSHIMA = "lf"
    POWELL = "powell"


class PhiMode(Enum):
    """How phi is chosen; each value is the id code: ``bfgs`` (phi = 1), ``preconvex``
    (the preconvex rule on mu = |s|^2 |z|^2 / <s, z>^2 >= 1) or ``preconvexrecip`` (on 1 / mu)."""

    BFGS = "bfgs"
    PRECONVEX = "preconvex"
    PRECONVEX_RECIPROCAL = "preconvexrecip"


class DirectionKind(Enum):
    BROYDEN = "broyden"
    FR = "fr"
    DY = "dy"
    PRP = "prp"
    HS = "hs"
    HZ = "hz"


DEFAULT_NU_HAT = {ZMode.LI_FUKUSHIMA: 1e-6, ZMode.POWELL: 0.1}
_HZ_MU = 2.0

_PRECONVEX_THETA_FLOOR = 1e-5
_DEGENERATE_EPS = 1e-12


class BroydenParams(NamedTuple):
    """One step's parameters and the ss = <s,s>, sz = <s,z> > 0, zz = <z,z> > 0 they rest on."""

    gamma: float
    tau: float
    phi: float
    xi: float
    ss: float
    sz: float
    zz: float


def _lift_to_floor(s: np.ndarray, z: np.ndarray, ss: float, target: float) -> np.ndarray:
    # z is the blend.  Cancellation in the blend can leave the computed
    # curvature a few ulps under the floor it equals in exact arithmetic;
    # nudge along s until the recomputed inner product clears it.  A no-op on
    # cleanly computed data.
    m = _dot(s, z)
    if m < target:
        bump = (target - m) / ss
        for _ in range(60):
            z = z + bump * s
            m = _dot(s, z)
            if m >= target:
                break
            bump *= 2.0
    return z


def compute_z(mode: ZMode, s: np.ndarray, y: np.ndarray, nu_hat: float,
              ss: float | None = None, sy: float | None = None) -> np.ndarray:
    """Regularize y so that <s, z> >= nu_hat * |s|^2.

    Li-Fukushima shifts y along s; Powell blends y with s.  Both return y
    itself when the raw curvature <s, y> already clears the floor.  s and y are
    ambient arrays at one point and ``nu_hat`` is the mode's floor
    (``DEFAULT_NU_HAT``).  ``ss`` and ``sy`` are <s, s> and <s, y> as ``inner``
    takes them; the solver passes both, and either is taken here when omitted.
    """
    if ss is None:
        ss = _dot(s, s)
    if ss == 0.0:
        raise DegenerateStepError("previous step has zero norm")
    if sy is None:
        sy = _dot(s, y)
    if sy >= nu_hat * ss:
        return y
    if mode is ZMode.LI_FUKUSHIMA:
        nu = max(0.0, -sy / ss) + nu_hat
        return _lift_to_floor(s, y + nu * s, ss, nu_hat * ss)
    if mode is ZMode.POWELL:
        nu = (1.0 - nu_hat) * ss / (ss - sy)
        return _lift_to_floor(s, nu * y + (1.0 - nu) * s, ss, nu_hat * ss)
    raise ContractViolationError(f"unknown z mode: {mode!r}")


def _preconvex_phi(mu: float) -> float:
    if abs(1.0 - mu) < _DEGENERATE_EPS:
        return 1.0
    theta = max(1.0 / (1.0 - mu), _PRECONVEX_THETA_FLOOR)
    # den <= -0.9 to rounding: 0.1 - 1 unless the floor binds (mu > 1), then below -1
    den = 0.1 * theta * (1.0 - mu) - 1.0
    phi = (0.1 * theta - 1.0) / den
    # the reciprocal reading can produce values below the family's domain
    return max(phi, 0.0)


def schedule_params(
    s: np.ndarray,
    z: np.ndarray,
    phi_mode: PhiMode,
    xi: float,
    ss: float | None = None,
    sz: float | None = None,
) -> BroydenParams:
    """Per-iteration sizing/scaling: gamma = max{1, sz/zz}, tau = min{1, zz/sz}.

    phi follows ``phi_mode`` (see ``PhiMode``).  The one place sz and zz are
    checked (``DegenerateZError``).  s and z are ambient arrays at one point and
    ``xi`` is the config's.  ``ss`` and ``sz`` are <s, s> and <s, z> as ``inner``
    takes them (the caller's <s, y> when ``compute_z`` returned y itself); the solver
    passes both, and either is taken here when omitted.
    """
    if ss is None:
        ss = _dot(s, s)
    if sz is None:
        sz = _dot(s, z)
    zz = _dot(z, z)
    if zz == 0.0:
        raise DegenerateZError("z has zero norm")
    if sz <= 0.0:
        raise DegenerateZError("curvature pair <s, z> is not positive")
    gamma = max(1.0, sz / zz)
    tau = min(1.0, zz / sz)
    if phi_mode is PhiMode.BFGS:
        phi = 1.0
    elif phi_mode is PhiMode.PRECONVEX or phi_mode is PhiMode.PRECONVEX_RECIPROCAL:
        # sz * sz underflows to 0 below |sz| ~ 1e-162: mu is then formed from the quotients
        sz2 = sz * sz
        mu = (ss * zz) / sz2 if sz2 != 0.0 else (ss / sz) * (zz / sz)
        phi = _preconvex_phi(mu if phi_mode is PhiMode.PRECONVEX else 1.0 / mu)
    else:
        raise ContractViolationError(f"unknown phi mode: {phi_mode!r}")
    return BroydenParams(gamma, tau, phi, xi, ss, sz, zz)


def broyden_direction(g: np.ndarray, s: np.ndarray, z: np.ndarray,
                      params: BroydenParams) -> np.ndarray:
    """Closed-form Broyden direction, as an ambient array; ``params`` must come from
    ``schedule_params`` on s and z.  g, s and z are ambient arrays at one point.
    <s, g> and <z, g> are taken as ``inner`` takes them."""
    sg = _dot(s, g)
    zg = _dot(z, g)
    gamma, tau, phi, xi = params.gamma, params.tau, params.phi, params.xi
    sz, zz = params.sz, params.zz
    coef_s = gamma * (phi * zg / sz - (1.0 / (gamma * tau) + phi * zz / sz) * (sg / sz))
    coef_z = gamma * xi * (phi * sg / sz + (1.0 - phi) * zg / zz)
    return (-gamma) * g + coef_s * s + coef_z * z


def sufficient_descent_kappa(gamma_min: float, xi_bar: float, phi_bar: float) -> float:
    """Descent constant kappa with <g, eta> <= -kappa |g|^2 under the parameter bounds.

    Valid for gamma >= gamma_min > 0, xi <= xi_bar < 1, and phi <= phi_bar^2
    with 1 < phi_bar < 2 (xi additionally capped when phi > 1).
    """
    if not gamma_min > 0.0:
        raise OutOfHypothesisError("gamma_min must be positive")
    if not 0.0 <= xi_bar < 1.0:
        raise OutOfHypothesisError("xi_bar must lie in [0, 1)")
    if not 1.0 < phi_bar < 2.0:
        raise OutOfHypothesisError("phi_bar must lie in (1, 2)")
    return min(
        0.75 * gamma_min * (1.0 - xi_bar),
        gamma_min * (1.0 - phi_bar * phi_bar / 4.0),
    )


def cg_beta(kind: DirectionKind, g: np.ndarray, t_g: np.ndarray, g_dot_t_eta: float,
            g_prev_norm2: float, g_prev_dot_eta: float) -> float | None:
    """Transported beta value, or None (restart) when a denominator vanishes or HZ's squared
    denominator leaves the float range.

    g is the new gradient's ambient array and t_g that of T(g_prev), at the same point;
    g_dot_t_eta = <g, T(eta_prev)>, and the previous gradient's |g_prev|^2 and
    <g_prev, eta_prev>.  The rule takes with ``_dot`` only the products it reads: FR
    |g|^2, DY also den = <g, T(eta_prev)> - <g_prev, eta_prev>, PRP and HS also
    <g, T(g_prev)>, and HZ (mu = 2) also |g - T(g_prev)|^2.
    """
    g_norm2 = _dot(g, g)
    if kind is DirectionKind.FR:
        return None if g_prev_norm2 == 0.0 else g_norm2 / g_prev_norm2
    den = g_dot_t_eta - g_prev_dot_eta
    if kind is DirectionKind.DY:
        return None if den == 0.0 else g_norm2 / den
    num = g_norm2 - _dot(g, t_g)
    if kind is DirectionKind.PRP:
        return None if g_prev_norm2 == 0.0 else num / g_prev_norm2
    if kind is DirectionKind.HS:
        return None if den == 0.0 else num / den
    if kind is DirectionKind.HZ:
        dd = den * den  # underflows to 0 below |den| ~ 1e-162, overflows above ~ 1e154
        if dd == 0.0 or dd == math.inf:
            return None
        y = g - t_g
        return num / den - _HZ_MU * _dot(y, y) * g_dot_t_eta / dd
    raise ContractViolationError(f"{kind!r} is not a conjugate-gradient rule")


def cg_direction(g: np.ndarray, beta: float, t_eta_prev: np.ndarray) -> np.ndarray:
    """eta = -g + beta * T(eta_prev), all ambient arrays at one point.

    No scaling factor enters: every shipped map meets |T(eta)| <= |eta|.
    """
    return -g + beta * t_eta_prev
