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
which guarantee the curvature floor <s, z> >= nu_hat * |s|^2.

Conjugate-gradient directions with transported FR/DY/PRP/HS/HZ beta rules are
provided as baselines; they share the same transported step data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    ContractViolationError,
    DegenerateStepError,
    DegenerateZError,
    OutOfHypothesisError,
)
from .manifolds import Tangent, inner


class ZMode(Enum):
    """How the curvature vector z is regularized."""

    LI_FUKUSHIMA = "li_fukushima"
    POWELL = "powell"


class PhiMode(Enum):
    """How the Broyden family parameter is chosen each iteration."""

    BFGS = "bfgs"
    PRECONVEX = "preconvex"


class DirectionKind(Enum):
    BROYDEN = "broyden"
    FR = "fr"
    DY = "dy"
    PRP = "prp"
    HS = "hs"
    HZ = "hz"


DEFAULT_NU_HAT = {ZMode.LI_FUKUSHIMA: 1e-6, ZMode.POWELL: 0.1}

_PRECONVEX_THETA_FLOOR = 1e-5
_DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class StepMemory:
    """Transported data from the latest accepted step, based at the new iterate.

    s is the transported step, y the transported gradient difference, z its
    regularization, t_eta / t_g the transported direction and gradient, and
    the scalars record what the beta formulas need from the previous iterate.
    """

    s: Tangent
    y: Tangent
    z: Tangent
    t_eta: Tangent
    t_g: Tangent
    sigma: float
    g_prev_norm: float
    g_prev_dot_eta: float


@dataclass(frozen=True)
class BroydenParams:
    gamma: float
    tau: float
    phi: float
    xi: float


def _lift_to_floor(s: Tangent, z: Tangent, ss: float, target: float) -> Tangent:
    # Cancellation in the blend can leave the computed curvature a few ulps
    # under the floor it equals in exact arithmetic; nudge along s until the
    # recomputed inner product clears it.  A no-op on cleanly computed data.
    m = inner(s.point, s, z)
    if m >= target:
        return z
    bump = (target - m) / ss
    for _ in range(60):
        z = z + bump * s
        m = inner(s.point, s, z)
        if m >= target:
            break
        bump *= 2.0
    return z


def compute_z(mode: ZMode, s: Tangent, y: Tangent, nu_hat: float) -> Tangent:
    """Regularize y so that <s, z> >= nu_hat * |s|^2.

    Li-Fukushima shifts y along s; Powell blends y with s.  Both leave y
    untouched when the raw curvature <s, y> already clears the floor.
    """
    ss = inner(s.point, s, s)
    if ss == 0.0:
        raise DegenerateStepError("previous step has zero norm")
    sy = inner(s.point, s, y)
    if mode is ZMode.LI_FUKUSHIMA:
        if not nu_hat > 0.0:
            raise ContractViolationError("Li-Fukushima requires nu_hat > 0")
        if sy >= nu_hat * ss:
            return y
        nu = max(0.0, -sy / ss) + nu_hat
        return _lift_to_floor(s, y + nu * s, ss, nu_hat * ss)
    if mode is ZMode.POWELL:
        if not 0.0 < nu_hat < 1.0:
            raise ContractViolationError("Powell damping requires nu_hat in (0, 1)")
        if sy >= nu_hat * ss:
            return y
        nu = (1.0 - nu_hat) * ss / (ss - sy)
        return _lift_to_floor(s, nu * y + (1.0 - nu) * s, ss, nu_hat * ss)
    raise ContractViolationError(f"unknown z mode: {mode!r}")


def _preconvex_phi(ss: float, zz: float, sz: float, reciprocal: bool) -> float:
    mu = (ss * zz) / (sz * sz)
    if reciprocal:
        mu = 1.0 / mu
    if abs(1.0 - mu) < _DEGENERATE_EPS:
        return 1.0
    theta = max(1.0 / (1.0 - mu), _PRECONVEX_THETA_FLOOR)
    den = 0.1 * theta * (1.0 - mu) - 1.0
    if abs(den) < _DEGENERATE_EPS:
        return 1.0
    phi = (0.1 * theta - 1.0) / den
    # the reciprocal reading can produce values below the family's domain
    return max(phi, 0.0)


def schedule_params(
    s: Tangent,
    z: Tangent,
    phi_mode: PhiMode,
    xi: float,
    preconvex_mu_reciprocal: bool = False,
) -> BroydenParams:
    """Per-iteration sizing/scaling: gamma = max{1, sz/zz}, tau = min{1, zz/sz}."""
    if not 0.0 <= xi <= 1.0:
        raise ContractViolationError("xi must lie in [0, 1]")
    sz = inner(s.point, s, z)
    zz = inner(z.point, z, z)
    if zz == 0.0:
        raise DegenerateZError("z has zero norm")
    if sz <= 0.0:
        raise DegenerateZError("curvature pair <s, z> is not positive")
    gamma = max(1.0, sz / zz)
    tau = min(1.0, zz / sz)
    if phi_mode is PhiMode.BFGS:
        phi = 1.0
    elif phi_mode is PhiMode.PRECONVEX:
        ss = inner(s.point, s, s)
        phi = _preconvex_phi(ss, zz, sz, preconvex_mu_reciprocal)
    else:
        raise ContractViolationError(f"unknown phi mode: {phi_mode!r}")
    return BroydenParams(gamma=gamma, tau=tau, phi=phi, xi=xi)


def broyden_direction(g: Tangent, s: Tangent, z: Tangent, params: BroydenParams) -> Tangent:
    """Closed-form memoryless spectral-scaling Broyden direction."""
    x = g.point
    sz = inner(x, s, z)
    if sz <= 0.0:
        raise ContractViolationError("<s, z> must be positive")
    zz = inner(x, z, z)
    if zz == 0.0:
        raise DegenerateZError("z has zero norm")
    sg = inner(x, s, g)
    zg = inner(x, z, g)
    gamma, tau, phi, xi = params.gamma, params.tau, params.phi, params.xi
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


@dataclass(frozen=True)
class CgScalars:
    """Inner products feeding the conjugate-gradient beta formulas."""

    g_norm2: float
    g_prev_norm2: float
    g_dot_t_eta: float
    g_dot_t_g: float
    y_norm2: float
    g_prev_dot_eta: float
    sigma: float
    hz_mu: float = 2.0


def cg_beta(kind: DirectionKind, s: CgScalars) -> float | None:
    """Transported beta value, or None when a denominator vanishes (restart)."""
    if kind is DirectionKind.FR:
        if s.g_prev_norm2 == 0.0:
            return None
        return s.g_norm2 / s.g_prev_norm2
    den = s.sigma * s.g_dot_t_eta - s.g_prev_dot_eta
    if kind is DirectionKind.DY:
        return None if den == 0.0 else s.g_norm2 / den
    num = s.g_norm2 - s.g_dot_t_g
    if kind is DirectionKind.PRP:
        return None if s.g_prev_norm2 == 0.0 else num / s.g_prev_norm2
    if kind is DirectionKind.HS:
        return None if den == 0.0 else num / den
    if kind is DirectionKind.HZ:
        if den == 0.0:
            return None
        return num / den - s.hz_mu * s.y_norm2 * s.g_dot_t_eta / (den * den)
    raise ContractViolationError(f"{kind!r} is not a conjugate-gradient rule")


def cg_direction(g: Tangent, beta: float, sigma: float, t_eta_prev: Tangent) -> Tangent:
    """eta = -g + beta * sigma * T(eta_prev)."""
    return -g + (beta * sigma) * t_eta_prev
