"""Iteration loop: direction, Wolfe line search, retraction update, memory.

Every accepted step satisfies both transported Wolfe predicates, every
iterate stays on the manifold (the retraction is the only update path), and
the run is bit-deterministic for a fixed (instance, x0, config) triple.
Failures never raise out of ``solve``; they terminate the run with a recorded
reason.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .directions import (
    DEFAULT_NU_HAT,
    DirectionKind,
    PhiMode,
    ZMode,
    broyden_direction,
    cg_beta,
    cg_direction,
    compute_z,
    schedule_params,
)
from .errors import (
    AntipodalPointsError,
    ConfigError,
    ContractViolationError,
    DegenerateStepError,
    DegenerateZError,
    InvalidPointError,
    LineSearchFailedError,
    SingularRetractionError,
)
from .linesearch import LineSearchConfig, search_step
from .manifolds import Point, TransportKind, _dot, inner, norm
from .problems import ProblemInstance
from .schema import check_fields, choice, flag, positive_integer, real, reject_unknown

_DESCENT_GUARD = 1e-14


class FailureReason(Enum):
    LINE_SEARCH_FAILED = "line_search_failed"
    MAX_ITERS = "max_iters"
    DEGENERATE_STEP = "degenerate_step"
    NON_FINITE = "non_finite"


# enum field -> its enum; a member is spelled by its value, the code solver ids use
_ENUM_FIELDS = {"direction": DirectionKind, "transport": TransportKind, "phi_mode": PhiMode,
                "z_mode": ZMode}
_TYPED_FIELDS = {**_ENUM_FIELDS, "line_search": LineSearchConfig}  # field -> its type

# field -> check of the scalar fields but record_trace, the one check of each; none takes None
_SCALAR_KEYS = {"xi": real, "tol": real, "max_iters": positive_integer}

# solver id field -> parse of its code; float() raises ValueError on a bad xi
_ID_CODES = {**{key: choice(enum) for key, enum in _ENUM_FIELDS.items()},
             "xi": lambda code, key: float(code[2:])}


@dataclass(frozen=True)
class SolverConfig:
    """All algorithmic choices for one run; the solver id spells each that defines the
    direction (nu_hat follows z_mode, HZ's mu is 2).  An unknown keyword is a ConfigError."""

    direction: DirectionKind = DirectionKind.BROYDEN
    transport: TransportKind = TransportKind.DIFFERENTIATED_RETRACTION
    phi_mode: PhiMode = PhiMode.BFGS
    z_mode: ZMode = ZMode.LI_FUKUSHIMA
    xi: float = 1.0
    line_search: LineSearchConfig = field(default_factory=LineSearchConfig)
    tol: float = 1e-6
    max_iters: int = 10000
    record_trace: bool = False

    def __new__(cls, *args, **kwargs):
        reject_unknown(kwargs, cls.__dataclass_fields__, "SolverConfig fields")
        return super().__new__(cls)

    def __post_init__(self):
        for key, cls in _TYPED_FIELDS.items():
            if not isinstance(getattr(self, key), cls):
                raise ConfigError(f"{key} must be a {cls.__name__}, got {getattr(self, key)!r}")
        check_fields(self, _SCALAR_KEYS)
        flag(self.record_trace, "record_trace")
        if not self.tol > 0.0:
            raise ConfigError("tol must be positive")
        if not 0.0 <= self.xi <= 1.0:
            raise ConfigError("xi must lie in [0, 1]")

    def resolved_nu_hat(self) -> float:
        """``DEFAULT_NU_HAT[z_mode]``; only the unedited ``tests/test_acceptance.py`` calls it."""
        return DEFAULT_NU_HAT[self.z_mode]


def solver_id(cfg: SolverConfig) -> str:
    """Stable string naming the algorithmic choices, e.g. broyden_bfgs_lf_xi0.1_dr.

    Each choice is written as its enum value; ``xi`` is written with ``%g`` when that
    reads back exactly, else with ``repr``; -0.0 is written ``0``.
    """
    t = cfg.transport.value
    if cfg.direction is DirectionKind.BROYDEN:
        xi = f"{abs(cfg.xi):g}"
        if float(xi) != cfg.xi:
            xi = repr(cfg.xi)
        return f"broyden_{cfg.phi_mode.value}_{cfg.z_mode.value}_xi{xi}_{t}"
    return f"{cfg.direction.value}_{t}"


def config_from_id(sid: str, base: SolverConfig | None = None) -> SolverConfig:
    """Parse a solver id back into a config (other fields taken from ``base``).

    Every id ends in its transport: ``dr``, ``proj`` or ``invret``.  Errors name the id;
    an id spelled unlike ``solver_id`` writes it (``xi0.10``) names that spelling.
    """
    parts = sid.split("_")
    if parts[0] == "broyden" and len(parts) == 5 and parts[3].startswith("xi"):
        keys = ("direction", "phi_mode", "z_mode", "xi", "transport")
    elif parts[0] != "broyden" and len(parts) == 2:
        keys = ("direction", "transport")
    else:
        raise ConfigError(f"malformed solver id: {sid!r}")
    try:
        fields = {key: _ID_CODES[key](code, key) for key, code in zip(keys, parts)}
        cfg = dataclasses.replace(base if base is not None else SolverConfig(), **fields)
    except ConfigError as exc:  # before ValueError, its base class
        raise ConfigError(f"{exc} in solver id {sid!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad xi in solver id {sid!r}") from exc
    if solver_id(cfg) != sid:
        raise ConfigError(f"solver id {sid!r} is written {solver_id(cfg)!r}")
    return cfg


@dataclass(eq=False)
class IterationTrace:
    """One trace row at ``point``; the terminal row carries nan step fields and no direction.

    ``direction`` is the read-only ambient array of the step's direction at ``point``.
    Rows compare and hash by identity.
    """

    iteration: int
    f: float
    gnorm: float
    alpha: float
    g_dot_eta: float
    time_ms: float
    point: Optional[Point] = None
    direction: Optional[np.ndarray] = None

    # trace column -> (field, format spec), in stream order
    COLUMNS: ClassVar[dict[str, tuple[str, str]]] = {
        "iter": ("iteration", "d"), "f": ("f", ".17g"), "gnorm": ("gnorm", ".17g"),
        "alpha": ("alpha", ".17g"), "g_dot_eta": ("g_dot_eta", ".17g"),
        "time_ms": ("time_ms", ".3f"),
    }
    CSV_HEADER: ClassVar[str] = ",".join(COLUMNS)

    def csv_row(self) -> str:
        return ",".join(format(getattr(self, name), spec) for name, spec in self.COLUMNS.values())

    def scalars(self) -> dict:
        return {column: getattr(self, name) for column, (name, _) in self.COLUMNS.items()}


@dataclass(slots=True)
class RunDiagnostics:
    """Cheap per-iteration scalars recorded on every run.

    gnorm/g_dot_eta/eta_norm/alpha0 have one entry per line search started, so a
    run ending line_search_failed has one more of them than of alpha, which has
    one entry per accepted step; alpha0 is the search's first trial step, as the
    line search's start rule chose it; z_margin/z_ratio one entry per Broyden memory
    build, and none on a CG run, which builds no z; gamma/tau/phi one entry per Broyden
    direction actually computed from memory;
    restarts counts the steepest-descent steps taken after a step was accepted.

    While a run is in progress each series is a list; the run that ``solve``
    returns holds each as an ``array('d')``, 8 bytes a value, with every value
    the double that was recorded.  Reading one back gives a ``float``; ``len``,
    indexing, iteration and slicing work as on a list.  ``np.asarray(series)`` is
    a zero-copy float64 view for analysis; ``list(series)`` gives list semantics
    (an array never compares equal to a list).
    """

    gnorm: Sequence[float] = field(default_factory=list)
    g_dot_eta: Sequence[float] = field(default_factory=list)
    eta_norm: Sequence[float] = field(default_factory=list)
    alpha0: Sequence[float] = field(default_factory=list)
    alpha: Sequence[float] = field(default_factory=list)
    gamma: Sequence[float] = field(default_factory=list)
    tau: Sequence[float] = field(default_factory=list)
    phi: Sequence[float] = field(default_factory=list)
    z_margin: Sequence[float] = field(default_factory=list)
    z_ratio: Sequence[float] = field(default_factory=list)
    restarts: int = 0

    SERIES: ClassVar[tuple[str, ...]] = (
        "gnorm", "g_dot_eta", "eta_norm", "alpha0", "alpha", "gamma", "tau", "phi", "z_margin",
        "z_ratio",
    )


@dataclass(slots=True)
class RunResult:
    converged: bool
    iters: int
    final_f: float
    final_gnorm: float
    elapsed: float
    trace: list[IterationTrace]
    failure_reason: Optional[FailureReason]
    diagnostics: RunDiagnostics
    # the exact cause of a failure: "<ExceptionClass>: <message>" for one raised as an
    # exception, a fixed text for a non-finite <g, eta>, "" when converged or at max_iters;
    # neither to_dict nor runs.csv carries it
    failure_detail: str = ""

    def to_dict(self) -> dict:  # with the trace rows when record_trace filled them
        out = {
            "converged": self.converged,
            "iters": self.iters,
            "final_f": self.final_f,
            "final_gnorm": self.final_gnorm,
            "elapsed": self.elapsed,
            "failure_reason": self.failure_reason.value if self.failure_reason else None,
        }
        if self.trace:
            out["trace"] = [row.scalars() for row in self.trace]
        return out

    def to_json(self) -> str:
        """``to_dict`` as strict JSON: a non-finite float is written as ``null``."""
        out = self.to_dict()
        for row in (out, *out.get("trace", ())):
            row.update([(k, None) for k, v in row.items()
                        if isinstance(v, float) and not math.isfinite(v)])
        return json.dumps(out)


_NON_FINITE_SLOPE = "<g, eta> is not negative: nan, or -|g|^2 underflowed to zero"


def _detail(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# overflow and nan end a run as non_finite; numpy need not also warn of them
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve(
    problem: ProblemInstance,
    x0: Point,
    cfg: SolverConfig,
    callback: Optional[Callable[[IterationTrace], None]] = None,
) -> RunResult:
    """Run the iteration loop from x0 until the stopping rule or a failure.

    The arguments are checked here, once: a problem that is no riemqn instance, an
    x0 that is no ``Point`` or a cfg that is no ``SolverConfig`` raises
    ``ContractViolationError`` naming the argument and its type; an x0 on another
    manifold raises it ("dimension mismatch") from the problem's first ``cost``.
    Tangent data is ambient float64 arrays throughout: ``grad`` returns one, the loop
    carries them, and a trace or callback row holds the direction's array, made
    read-only in place.  Every iterate is a checked ``Point``.  The latest accepted
    step's memory is kept in locals.  A Broyden step forms its step image s = alpha * T(eta) and takes the
    products its memory reads here with ``_dot``, bit for bit as ``inner`` takes them;
    a CG step keeps the previous gradient's squared norm and slope, and ``cg_beta``
    takes the products its rule reads.
    """
    for name, value, kind in (("problem", problem, ProblemInstance), ("x0", x0, Point),
                              ("cfg", cfg, SolverConfig)):
        if not isinstance(value, kind):
            expected = " or ".join(cls.__name__ for cls in getattr(kind, "__args__", (kind,)))
            raise ContractViolationError(
                f"{name} must be a {expected}, got {type(value).__name__}"
            )
    ls, kind = cfg.line_search, cfg.direction
    broyden = kind is DirectionKind.BROYDEN
    if broyden:  # the fields only the Broyden memory reads
        z_mode, phi_mode, xi = cfg.z_mode, cfg.phi_mode, cfg.xi
        nu_hat = DEFAULT_NU_HAT[z_mode]
    t_start = time.perf_counter()

    def now_ms() -> float:
        return (time.perf_counter() - t_start) * 1e3

    diag = RunDiagnostics()
    trace: list[IterationTrace] = []
    sinks = [trace.append] if cfg.record_trace else []
    if callback is not None:
        sinks.append(callback)

    def emit(gnorm, alpha, g_dot_eta, direction) -> None:
        # one row at the current (k, f, x) to every sink; the terminal row has no direction.
        # Called only when there are sinks.
        row = IterationTrace(iteration=k, f=f, gnorm=gnorm, alpha=alpha, g_dot_eta=g_dot_eta,
                             time_ms=now_ms(), point=x, direction=direction)
        for sink in sinks:
            sink(row)

    x = x0
    f = problem.cost(x)
    g = problem.grad(x)
    # the latest accepted step (None before the first), its arrays at x; a Broyden run
    # keeps its s = alpha * T(eta), z and params, a CG run the squared norm and slope of
    # the gradient the step left
    ev = None
    k = 0
    failure: Optional[FailureReason] = None
    detail = ""

    while True:
        gnorm = norm(g)
        if gnorm < cfg.tol:  # strict: tol itself does not stop the run
            break
        if k >= cfg.max_iters:
            failure = FailureReason.MAX_ITERS
            break
        if ev is None:
            eta = None
        elif broyden:
            diag.gamma.append(params.gamma)
            diag.tau.append(params.tau)
            diag.phi.append(params.phi)
            eta = broyden_direction(g, s, z, params)
        else:
            beta = cg_beta(kind, g, ev.t_g, ev.dphi, g_prev_norm2, g_prev_dot_eta)
            eta = None if beta is None else cg_direction(g, beta, ev.t_eta)
        if eta is None or (gde := inner(x, g, eta)) >= -_DESCENT_GUARD * gnorm * gnorm:
            # steepest descent; a restart when the last step gave no descent direction
            if ev is not None:
                diag.restarts += 1
            eta = -g
            gde = inner(x, g, eta)
        if not gde < 0.0:  # nan, or -|g|^2 underflowed to zero
            failure = FailureReason.NON_FINITE
            detail = _NON_FINITE_SLOPE
            break
        diag.gnorm.append(gnorm)
        diag.g_dot_eta.append(gde)
        diag.eta_norm.append(norm(eta))
        # Nocedal & Wright (3.60): the step that repeats the last decrease,
        # 1 / |g| on the first search, capped at alpha_init; alpha_init when
        # that is not finite and positive (|g| = inf, no decrease, a rounding rise)
        rule = 1.0 / gnorm if k == 0 else 1.01 * 2.0 * (f - f_prev) / gde
        alpha0 = min(ls.alpha_init, rule) if 0.0 < rule < math.inf else ls.alpha_init
        diag.alpha0.append(alpha0)
        try:
            ev = search_step(
                problem, x, eta, ls, cfg.transport, f0=f, g0=g, alpha0=alpha0, d0=gde
            )
        except LineSearchFailedError as exc:
            failure, detail = FailureReason.LINE_SEARCH_FAILED, _detail(exc)
            break
        except (InvalidPointError, SingularRetractionError, AntipodalPointsError) as exc:
            # overflow carried a trial step's arithmetic to inf or nan
            failure, detail = FailureReason.NON_FINITE, _detail(exc)
            break
        diag.alpha.append(ev.alpha)
        if sinks:
            eta.setflags(False)  # write=False: the row's array stays as the step used it
            emit(gnorm, ev.alpha, gde, eta)
        f_prev = f
        x, f, g = ev.x_new, ev.f_new, ev.g_new
        k += 1
        if not broyden:
            g_prev_norm2, g_prev_dot_eta = gnorm * gnorm, gde
            continue
        try:  # s, y = g - T(g_prev) and g are all at x
            s = ev.alpha * ev.t_eta
            y = g - ev.t_g
            ss = _dot(s, s)
            sy = _dot(s, y)
            z = compute_z(z_mode, s, y, nu_hat, ss, sy)
            params = schedule_params(s, z, phi_mode, xi, ss, sy if z is y else None)
            diag.z_margin.append(params.sz - nu_hat * params.ss)
            diag.z_ratio.append(math.sqrt(params.zz / params.ss))
        except (DegenerateStepError, DegenerateZError) as exc:
            failure, detail = FailureReason.DEGENERATE_STEP, _detail(exc)
            break

    final_gnorm = norm(g)
    if sinks:
        emit(final_gnorm, math.nan, math.nan, None)
    for name in RunDiagnostics.SERIES:  # the finished series, 8 bytes a value
        setattr(diag, name, array("d", getattr(diag, name)))
    return RunResult(
        converged=failure is None,
        iters=k,
        final_f=f,
        final_gnorm=final_gnorm,
        elapsed=time.perf_counter() - t_start,
        trace=trace,
        failure_reason=failure,
        diagnostics=diag,
        failure_detail=detail,
    )
