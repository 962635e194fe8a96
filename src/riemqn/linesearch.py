"""Step sizes satisfying the transported (weak) Wolfe conditions.

The curvature condition is evaluated through the configured transport map:
a trial step alpha along eta is accepted when

    f(R_x(alpha * eta)) <= f(x) + c1 * alpha * <g, eta>          (Armijo)
    <grad f(R_x(alpha * eta)), T(eta)>  >=  c2 * <g, eta>        (curvature)

where T carries eta across the displacement alpha * eta.  The same transport
call also returns the images of the step and of the gradient at x, which the
solver's memory uses, so an accepted step needs no further transport.  The
search brackets by doubling and then zooms; zoom progress is guaranteed by
bisection, with a safeguarded quadratic fit for its first trial to cut
evaluations on stiff objectives.  Gradients are only evaluated for trials
that pass Armijo.  Any step returned passes both predicates exactly as
``wolfe_check`` re-evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ContractViolationError, LineSearchFailedError
from .manifolds import (
    Point,
    Tangent,
    TransportKind,
    inner,
    retract,
    transport_direction,
)


@dataclass(frozen=True)
class LineSearchConfig:
    # max_evals must absorb direction-norm spikes: shrinking the trial step
    # geometrically costs one evaluation per halving, so a budget of k covers
    # directions up to ~2^k times the natural step scale.
    c1: float = 1e-4
    c2: float = 0.9
    alpha_init: float = 1.0
    alpha_max: float = 1e10
    max_evals: int = 120

    def __post_init__(self):
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ConfigError("line search requires 0 < c1 < c2 < 1")
        if not self.alpha_init > 0.0:
            raise ConfigError("alpha_init must be positive")
        if self.alpha_max < self.alpha_init:
            raise ConfigError("alpha_max must be >= alpha_init")
        if self.max_evals < 3:
            raise ConfigError("max_evals must be at least 3")


@dataclass(frozen=True)
class StepEval:
    """Everything the solver needs about one evaluated trial step."""

    alpha: float
    x_new: Point
    f_new: float
    g_new: Tangent
    t_eta: Tangent
    s: Tangent
    t_g: Tangent
    dphi: float


@dataclass(frozen=True)
class _Probe:
    alpha: float
    x_new: Point
    f_new: float


def _probe(problem, x: Point, eta: Tangent, alpha: float) -> _Probe:
    x_new = retract(x, alpha * eta)
    return _Probe(alpha=alpha, x_new=x_new, f_new=problem.cost(x_new))


def _complete(
    problem, x: Point, eta: Tangent, g0: Tangent, kind: TransportKind, p: _Probe
) -> StepEval:
    g_new = problem.grad(p.x_new)
    t_eta, s, t_g = transport_direction(kind, x, eta, p.alpha, g0, p.x_new)
    dphi = inner(p.x_new, g_new, t_eta)
    return StepEval(
        alpha=p.alpha,
        x_new=p.x_new,
        f_new=p.f_new,
        g_new=g_new,
        t_eta=t_eta,
        s=s,
        t_g=t_g,
        dphi=dphi,
    )


def wolfe_check(
    problem,
    x: Point,
    eta: Tangent,
    alpha: float,
    cfg: LineSearchConfig,
    kind: TransportKind = TransportKind.DIFFERENTIATED_RETRACTION,
) -> tuple[bool, bool]:
    """Evaluate the (Armijo, curvature) predicates for a given step size."""
    if not alpha > 0.0:
        raise ContractViolationError("step size must be positive")
    f0 = problem.cost(x)
    g0 = problem.grad(x)
    d0 = inner(x, g0, eta)
    if not d0 < 0.0:
        raise ContractViolationError("eta is not a descent direction")
    ev = _complete(problem, x, eta, g0, kind, _probe(problem, x, eta, alpha))
    armijo_ok = ev.f_new <= f0 + cfg.c1 * alpha * d0
    curvature_ok = ev.dphi >= cfg.c2 * d0
    return armijo_ok, curvature_ok


def search_step(
    problem,
    x: Point,
    eta: Tangent,
    cfg: LineSearchConfig,
    kind: TransportKind = TransportKind.DIFFERENTIATED_RETRACTION,
    f0: float | None = None,
    g0: Tangent | None = None,
) -> StepEval:
    """Bracket-and-zoom search returning the full evaluation of a Wolfe step."""
    if f0 is None:
        f0 = problem.cost(x)
    if g0 is None:
        g0 = problem.grad(x)
    d0 = inner(x, g0, eta)
    if not d0 < 0.0:
        raise ContractViolationError("eta is not a descent direction")

    evals = 0

    def probe(alpha: float) -> _Probe:
        nonlocal evals
        if evals >= cfg.max_evals:
            raise LineSearchFailedError(f"no Wolfe step within {cfg.max_evals} evaluations")
        evals += 1
        return _probe(problem, x, eta, alpha)

    def armijo(p: _Probe) -> bool:
        return p.f_new <= f0 + cfg.c1 * p.alpha * d0

    def curvature(ev: StepEval) -> bool:
        return ev.dphi >= cfg.c2 * d0

    def zoom(a_lo: float, f_lo: float, a_hi: float, f_hi: float) -> StepEval:
        # a_lo always satisfies Armijo with the lowest f seen so far; a Wolfe
        # point lies between a_lo and a_hi (the interval may be reversed).
        use_fit = True
        while True:
            left, right = (a_lo, a_hi) if a_lo <= a_hi else (a_hi, a_lo)
            width = right - left
            a = 0.5 * (a_lo + a_hi)
            if use_fit:
                # minimizer of the quadratic through (0, f0, d0) and (a_hi, f_hi),
                # kept strictly interior so progress never stalls
                use_fit = False
                denom = f_hi - f0 - d0 * a_hi
                if denom > 0.0:
                    cand = -0.5 * d0 * a_hi * a_hi / denom
                    lo_band = left + 0.1 * width
                    hi_band = right - 0.1 * width
                    if lo_band <= cand <= hi_band:
                        a = cand
            if a == a_lo or a == a_hi:
                raise LineSearchFailedError("zoom interval collapsed")
            p = probe(a)
            if not armijo(p) or p.f_new >= f_lo:
                a_hi, f_hi = a, p.f_new
            else:
                ev = _complete(problem, x, eta, g0, kind, p)
                if curvature(ev):
                    return ev
                if ev.dphi * (a_hi - a_lo) >= 0.0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo = a, p.f_new

    prev_alpha, prev_f = 0.0, f0
    alpha = min(cfg.alpha_init, cfg.alpha_max)
    first = True
    while True:
        p = probe(alpha)
        if not armijo(p) or (not first and p.f_new >= prev_f):
            return zoom(prev_alpha, prev_f, alpha, p.f_new)
        ev = _complete(problem, x, eta, g0, kind, p)
        if curvature(ev):
            return ev
        if alpha >= cfg.alpha_max:
            raise LineSearchFailedError("reached alpha_max while still descending steeply")
        prev_alpha, prev_f = alpha, p.f_new
        alpha = min(2.0 * alpha, cfg.alpha_max)
        first = False
