"""Step sizes satisfying the transported (weak) Wolfe conditions.

The curvature condition is evaluated through the configured transport map:
a trial step alpha along eta is accepted when

    f(R_x(alpha * eta)) <= f(x) + c1 * alpha * <g, eta>          (Armijo)
    <grad f(R_x(alpha * eta)), T(eta)>  >=  c2 * <g, eta>        (curvature)

where T carries eta across the displacement alpha * eta.  The same transport
call also returns the image of the gradient at x, which the solver's memory
uses with T(eta), so an accepted step needs no further transport.  The
search brackets by doubling and then zooms; zoom progress is guaranteed by
bisection, with a safeguarded quadratic fit for its first trial to cut
evaluations on stiff objectives.  The zoom keeps ``0 <= a_lo < a_hi``: a trial
that passes Armijo and fails the weak curvature test has ``dphi < c2 <g, eta> < 0``
and only raises a_lo, so the strong-Wolfe zoom's swap (Nocedal & Wright, Alg. 3.6)
cannot fire, and there is none.  Gradients are only evaluated for trials
that pass Armijo.  ``search_step`` evaluates nothing at x: its caller hands
it f(x), grad f(x), <g, eta> and the first trial (the solver's start rule is
the one place a search's start is chosen), so ``wolfe_check`` is the one
function that evaluates a step from scratch.  Both call the one Armijo test,
``armijo``.  ``wolfe_check`` evaluates with direct products, where the search
may derive them along its ray (below), so a returned step passes both
predicates as ``wolfe_check`` re-evaluates them to within that derivation's
rounding (``4 n eps |A|_F`` on the Rayleigh problem).  That rounding reaches
a replay through ``f`` and also through the slope: near a minimizer the
search's ``d0``, taken from a gradient at a ray-derived product, and the
replay's direct one can differ by a few percent, and a floor-form cost change
that sits within that of its bound ``c1 * alpha * d0`` then flips.  Measured
once in 30,600 runs (Rayleigh n = 3 and 4, seeds 0-299, 51 solver ids):
``rayleigh_instance(3, 215)``, ``hs_proj``, ``tol`` 1e-10, ``alpha_max`` inf,
step 41 (``|g|`` 1.6e-10, the two ``d0`` 2.7% apart) was accepted at a change
of -3.0e-31 against its bound -5.4e-33, and replays at +1.2e-30, so
``wolfe_check`` gives ``(False, True)``.

Tangent data is ambient float64 arrays at every boundary here: eta, the
gradients ``grad`` returns and the transported images are the arrays
themselves, read as tangent vectors at the point they come with (see
``manifolds``), and ``wolfe_check`` takes a trace row's ``direction`` as it
is.  Every trial is a checked ``Point``.

Before it evaluates a trial, the search names it to the problem through the
optional hook ``on_ray(x, eta, alpha, x_new)``: x_new is
``retract(x, eta, alpha)``, and every trial of one search passes the same
eta array, so a problem can key on its identity.  A problem may derive what
it computes at x_new from what it computed at the earlier trials of the same
search (``RayleighInstance`` derives ``A x_new``; see ``problems``).  Every trial is
still one ``cost`` call and every gradient one ``grad`` call.

Near a minimizer ``f(x_new) - f(x)`` cancels to rounding noise while
``c1 * alpha * <g, eta>`` is still resolvable.  So when ``f(x_new)`` lies
within ``1000 eps |f(x)|`` of ``f(x)`` and the problem offers the optional
hook ``cost_change(x, eta, alpha, f0, d0)``, which returns that change
computed without the cancellation, Armijo tests the change instead, and the
search compares two such trials by their changes (in the spirit of Hager and
Zhang's approximate Wolfe conditions, SIAM J. Optim. 16, 2005).  Elsewhere
Armijo is ``f_new <= f0 + c1 * alpha * d0``, evaluated as written.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ConfigError, ContractViolationError, LineSearchFailedError
from .manifolds import Point, TransportKind, inner, retract, transport_direction
from .schema import Check, at_least, check_fields, real

# |f_new - f0| <= FLOOR_BAND * |f0|: f_new - f0 may be rounding noise
FLOOR_BAND = 1000.0 * sys.float_info.epsilon


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

    # field -> check, applied here and by the solver config's JSON reader
    CHECKS: ClassVar[dict[str, Check]] = {
        "c1": real, "c2": real, "alpha_init": real, "alpha_max": real, "max_evals": at_least(3),
    }

    def __post_init__(self):
        check_fields(self, self.CHECKS)
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ConfigError("line search requires 0 < c1 < c2 < 1")
        if not 0.0 < self.alpha_init < math.inf:  # alpha_max may be inf: no cap
            raise ConfigError("alpha_init must be positive and finite")
        if self.alpha_max < self.alpha_init:
            raise ConfigError("alpha_max must be >= alpha_init")


class StepEval(NamedTuple):
    """Everything the solver needs about one evaluated trial step: the step alpha, the
    point x_new it reaches, f and grad f there, the transported direction t_eta and
    gradient t_g, and dphi = <g_new, t_eta>.  g_new, t_eta and t_g are ambient arrays
    at x_new.  The step image is ``alpha * t_eta``."""

    alpha: float
    x_new: Point
    f_new: float
    g_new: np.ndarray
    t_eta: np.ndarray
    t_g: np.ndarray
    dphi: float


def armijo(
    problem, x: Point, eta: np.ndarray, alpha: float, f0: float, d0: float, f_new: float, c1: float,
) -> tuple[bool, float | None]:
    """The Armijo test of the trial step alpha, and the cost change it tested, if any.

    Within the rounding floor of f0, on a problem with ``cost_change``, the test is
    ``change <= c1 * alpha * d0`` and the change is returned; otherwise it is
    ``f_new <= f0 + c1 * alpha * d0``, evaluated as written, and the change is None.
    """
    if abs(f_new - f0) <= FLOOR_BAND * abs(f0):
        cost_change = getattr(problem, "cost_change", None)
        if cost_change is not None:
            change = cost_change(x, eta, alpha, f0, d0)
            return change <= c1 * alpha * d0, change
    return f_new <= f0 + c1 * alpha * d0, None


def _complete(
    problem, x: Point, eta: np.ndarray, g0: np.ndarray, kind: TransportKind,
    alpha: float, x_new: Point, f_new: float,
) -> StepEval:
    """The full evaluation of the trial step alpha, which reached x_new at cost f_new."""
    g_new = problem.grad(x_new)
    t_eta, t_g = transport_direction(kind, x, eta, alpha, g0, x_new)
    dphi = inner(x_new, g_new, t_eta)
    return StepEval(alpha, x_new, f_new, g_new, t_eta, t_g, dphi)


def wolfe_check(
    problem,
    x: Point,
    eta: np.ndarray,
    alpha: float,
    cfg: LineSearchConfig,
    kind: TransportKind = TransportKind.DIFFERENTIATED_RETRACTION,
) -> tuple[bool, bool]:
    """Evaluate the (Armijo, curvature) predicates for a given step size along eta.

    eta is the direction's ambient array at x, such as a trace row's ``direction``.
    A step that is not positive and finite raises ``ContractViolationError`` before any
    evaluation, as ``search_step``'s first trial does."""
    if not 0.0 < alpha < math.inf:
        raise ContractViolationError(f"step size {alpha!r} is not positive and finite")
    f0 = problem.cost(x)
    g0 = problem.grad(x)
    d0 = inner(x, g0, eta)
    if not d0 < 0.0:
        raise ContractViolationError("eta is not a descent direction")
    x_new = retract(x, eta, alpha)
    ev = _complete(problem, x, eta, g0, kind, alpha, x_new, problem.cost(x_new))
    armijo_ok, _ = armijo(problem, x, eta, alpha, f0, d0, ev.f_new, cfg.c1)
    curvature_ok = ev.dphi >= cfg.c2 * d0
    return armijo_ok, curvature_ok


def search_step(
    problem,
    x: Point,
    eta: np.ndarray,
    cfg: LineSearchConfig,
    kind: TransportKind = TransportKind.DIFFERENTIATED_RETRACTION,
    *,
    f0: float,
    g0: np.ndarray,
    d0: float,
    alpha0: float,
) -> StepEval:
    """Bracket-and-zoom search returning the full evaluation of a Wolfe step.

    ``eta`` is the ambient array of the direction at x.  The caller hands in the anchor
    and the start: ``f0``, ``g0`` and ``d0`` are f(x), the ambient array of grad f(x)
    and <g0, eta> as ``inner`` takes it, and the first trial is ``alpha0``
    capped at ``cfg.alpha_max``.  A first trial that is not positive and finite, or a
    ``d0`` that is not negative, raises ``ContractViolationError`` before any evaluation.
    """
    alpha = min(alpha0, cfg.alpha_max)
    if not 0.0 < alpha < math.inf:
        raise ContractViolationError(f"first trial step {alpha!r} is not positive and finite")
    if not d0 < 0.0:
        raise ContractViolationError("eta is not a descent direction")

    # One loop makes every trial: it doubles alpha until a trial brackets a
    # Wolfe step (a_hi is set), then zooms.  a_lo always satisfies Armijo with
    # the lowest f seen so far, and 0 <= a_lo < a_hi: a_hi is first a trial above
    # a_lo, every later trial lies strictly inside, and one failing curvature only
    # raises a_lo.  ch_lo is a_lo's cost change when Armijo tested one (0 at
    # a_lo = 0), else None.  The zoom's first trial is the minimizer of the
    # quadratic through (0, f0, d0) and (a_hi, f_hi), kept strictly interior so
    # progress never stalls.
    on_ray = getattr(problem, "on_ray", None)
    evals = 0
    a_lo, f_lo, ch_lo = 0.0, f0, 0.0
    a_hi = f_hi = None
    use_fit = True
    while True:
        if evals >= cfg.max_evals:
            raise LineSearchFailedError(f"no Wolfe step within {cfg.max_evals} evaluations")
        evals += 1
        x_new = retract(x, eta, alpha)
        if on_ray is not None:
            on_ray(x, eta, alpha, x_new)
        f_new = problem.cost(x_new)
        # Armijo, as wolfe_check replays it; after the first trial, a trial no
        # lower than a_lo also brackets, compared by cost change when both have one
        armijo_ok, change = armijo(problem, x, eta, alpha, f0, d0, f_new, cfg.c1)
        if not armijo_ok or (evals > 1 and (
                f_new >= f_lo if change is None or ch_lo is None else change >= ch_lo)):
            a_hi, f_hi = alpha, f_new
        else:
            ev = _complete(problem, x, eta, g0, kind, alpha, x_new, f_new)
            if ev.dphi >= cfg.c2 * d0:
                return ev
            if a_hi is None:
                if alpha >= cfg.alpha_max:
                    raise LineSearchFailedError("reached alpha_max while still descending steeply")
                a_lo, f_lo, ch_lo = alpha, f_new, change
                alpha = min(2.0 * alpha, cfg.alpha_max)
                continue
            a_lo, f_lo, ch_lo = alpha, f_new, change
        alpha = 0.5 * (a_lo + a_hi)
        if use_fit:
            use_fit = False
            width = a_hi - a_lo
            denom = f_hi - f0 - d0 * a_hi
            if denom > 0.0:
                cand = -0.5 * d0 * a_hi * a_hi / denom
                if a_lo + 0.1 * width <= cand <= a_hi - 0.1 * width:
                    alpha = cand
        if alpha == a_lo or alpha == a_hi:
            raise LineSearchFailedError("zoom interval collapsed")
