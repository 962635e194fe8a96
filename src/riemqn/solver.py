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
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, ClassVar, Mapping, Optional

from .directions import (
    DEFAULT_NU_HAT,
    CgScalars,
    DirectionKind,
    PhiMode,
    StepMemory,
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
    DegenerateTransportError,
    DegenerateZError,
    InvalidPointError,
    LineSearchFailedError,
    SingularRetractionError,
)
from .linesearch import LineSearchConfig, search_step
from .manifolds import (
    Point,
    Tangent,
    TransportKind,
    inner,
    norm,
    scaling_sigma,
)
from .problems import ProblemInstance
from .schema import check_fields, choice, flag, integer, read_object, real

_DESCENT_GUARD = 1e-14


class FailureReason(Enum):
    LINE_SEARCH_FAILED = "line_search_failed"
    MAX_ITERS = "max_iters"
    DEGENERATE_STEP = "degenerate_step"
    NON_FINITE = "non_finite"


_TRANSPORT_CODES = {
    TransportKind.DIFFERENTIATED_RETRACTION: "dr",
    TransportKind.PROJECTION: "proj",
    TransportKind.INVERSE_RETRACTION: "invret",
}
_Z_CODES = {ZMode.LI_FUKUSHIMA: "lf", ZMode.POWELL: "powell"}

# JSON key of the line_search object -> LineSearchConfig field (max_evals is max_ls_evals)
_LINE_SEARCH_FIELDS = {
    "max_ls_evals" if name == "max_evals" else name: name for name in LineSearchConfig.CHECKS
}
_LINE_SEARCH_KEYS = {key: LineSearchConfig.CHECKS[f] for key, f in _LINE_SEARCH_FIELDS.items()}

# enum field -> its enum; the JSON reader also takes the short codes
_ENUM_FIELDS = {"direction": DirectionKind, "transport": TransportKind, "phi_mode": PhiMode,
                "z_mode": ZMode}
_ENUM_CODES = {"transport": _TRANSPORT_CODES, "z_mode": _Z_CODES}
_TYPED_FIELDS = {**_ENUM_FIELDS, "line_search": LineSearchConfig}  # field -> its type

# field -> check of the other scalar fields, for built and JSON configs alike.
# Only nu_hat may be None (its default follows z_mode).
_SCALAR_KEYS = {
    "xi": real,
    "nu_hat": lambda value, key: None if value is None else real(value, key),
    "hz_mu": real,
    "preconvex_mu_reciprocal": flag,
    "tol": real,
    "max_iters": integer,
    "record_trace": flag,
}

# JSON key -> check; each key names a SolverConfig field
_SOLVER_KEYS = {
    **{key: choice(enum, _ENUM_CODES.get(key)) for key, enum in _ENUM_FIELDS.items()},
    **_SCALAR_KEYS,
    "line_search": lambda value, key: read_object(value, _LINE_SEARCH_KEYS, key),
}


@dataclass(frozen=True)
class SolverConfig:
    """All algorithmic choices for one run."""

    direction: DirectionKind = DirectionKind.BROYDEN
    transport: TransportKind = TransportKind.DIFFERENTIATED_RETRACTION
    phi_mode: PhiMode = PhiMode.BFGS
    z_mode: ZMode = ZMode.LI_FUKUSHIMA
    xi: float = 1.0
    nu_hat: Optional[float] = None
    hz_mu: float = 2.0
    preconvex_mu_reciprocal: bool = False
    line_search: LineSearchConfig = field(default_factory=LineSearchConfig)
    tol: float = 1e-6
    max_iters: int = 10000
    record_trace: bool = False

    def __post_init__(self):
        for key, cls in _TYPED_FIELDS.items():
            if not isinstance(getattr(self, key), cls):
                raise ConfigError(f"{key} must be a {cls.__name__}, got {getattr(self, key)!r}")
        check_fields(self, _SCALAR_KEYS)
        if not self.tol > 0.0:
            raise ConfigError("tol must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not 0.0 <= self.xi <= 1.0:
            raise ConfigError("xi must lie in [0, 1]")
        if not self.hz_mu > 0.25:
            raise ConfigError("hz_mu must exceed 1/4")
        nu_hat = self.resolved_nu_hat()
        if not (0.0 < nu_hat < 1.0 if self.z_mode is ZMode.POWELL else nu_hat > 0.0):
            raise ConfigError("nu_hat must be positive, and below 1 for Powell damping")

    def resolved_nu_hat(self) -> float:
        return self.nu_hat if self.nu_hat is not None else DEFAULT_NU_HAT[self.z_mode]

    def to_dict(self) -> dict:
        """The JSON object ``from_dict`` reads back; ``record_trace`` is left out."""
        out = {key: getattr(self, key) for key in _SOLVER_KEYS if key != "record_trace"}
        out.update({key: value.value for key, value in out.items() if isinstance(value, Enum)})
        out["line_search"] = {
            key: getattr(self.line_search, name) for key, name in _LINE_SEARCH_FIELDS.items()
        }
        return out

    @classmethod
    def from_dict(cls, data: Mapping, base: "SolverConfig | None" = None) -> "SolverConfig":
        """``base`` (default: the defaults) with the fields that ``data`` sets."""
        base = base if base is not None else cls()
        fields = read_object(data, _SOLVER_KEYS, "solver config")
        if "line_search" in fields:
            ls = {_LINE_SEARCH_FIELDS[k]: v for k, v in fields["line_search"].items()}
            fields["line_search"] = dataclasses.replace(base.line_search, **ls)
        return dataclasses.replace(base, **fields)


def solver_id(cfg: SolverConfig) -> str:
    """Stable string naming the algorithmic choices, e.g. broyden_bfgs_lf_xi0.1_dr."""
    t = _TRANSPORT_CODES[cfg.transport]
    if cfg.direction is DirectionKind.BROYDEN:
        return f"broyden_{cfg.phi_mode.value}_{_Z_CODES[cfg.z_mode]}_xi{cfg.xi:g}_{t}"
    return f"{cfg.direction.value}_{t}"


def config_from_id(sid: str, base: SolverConfig | None = None) -> SolverConfig:
    """Parse a solver id back into a config (other fields taken from ``base``).

    Ids name the transport by its code only: ``dr``, ``proj`` or ``invret``.
    """
    parts = sid.split("_")
    if parts[0] == "broyden" and len(parts) == 5 and parts[3].startswith("xi"):
        try:
            xi = float(parts[3][2:])
        except ValueError as exc:
            raise ConfigError(f"bad xi in solver id {sid!r}") from exc
        data = {"direction": parts[0], "phi_mode": parts[1], "z_mode": parts[2],
                "xi": xi, "transport": parts[4]}
    elif parts[0] != "broyden" and len(parts) <= 2:
        data = {"direction": parts[0], "transport": parts[1] if len(parts) == 2 else "dr"}
    else:
        raise ConfigError(f"malformed solver id: {sid!r}")
    if data["transport"] not in _TRANSPORT_CODES.values():
        raise ConfigError(f"solver id {sid!r} must end in a transport code: dr, proj or invret")
    return SolverConfig.from_dict(data, base)


@dataclass
class IterationTrace:
    """One trace row; the terminal row carries nan step fields."""

    iteration: int
    f: float
    gnorm: float
    alpha: float
    g_dot_eta: float
    time_ms: float
    point: Optional[Point] = None
    direction: Optional[Tangent] = None

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


@dataclass
class RunDiagnostics:
    """Cheap per-iteration scalars recorded on every run.

    gnorm/g_dot_eta/eta_norm/alpha have one entry per accepted step;
    z_margin/z_ratio one entry per memory build; gamma/tau/phi one entry per
    Broyden direction actually computed from memory.
    """

    gnorm: list[float] = field(default_factory=list)
    g_dot_eta: list[float] = field(default_factory=list)
    eta_norm: list[float] = field(default_factory=list)
    alpha: list[float] = field(default_factory=list)
    gamma: list[float] = field(default_factory=list)
    tau: list[float] = field(default_factory=list)
    phi: list[float] = field(default_factory=list)
    z_margin: list[float] = field(default_factory=list)
    z_ratio: list[float] = field(default_factory=list)
    restarts: int = 0


@dataclass
class RunResult:
    converged: bool
    iters: int
    final_f: float
    final_gnorm: float
    elapsed: float
    trace: list[IterationTrace]
    failure_reason: Optional[FailureReason]
    diagnostics: RunDiagnostics

    def to_dict(self, include_trace: bool = True) -> dict:
        out = {
            "converged": self.converged,
            "iters": self.iters,
            "final_f": self.final_f,
            "final_gnorm": self.final_gnorm,
            "elapsed": self.elapsed,
            "failure_reason": self.failure_reason.value if self.failure_reason else None,
        }
        if include_trace and self.trace:
            out["trace"] = [row.scalars() for row in self.trace]
        return out

    def to_json(self, include_trace: bool = True) -> str:
        return json.dumps(self.to_dict(include_trace=include_trace))


def _direction(g: Tangent, memory: Optional[StepMemory], cfg: SolverConfig,
               diag: RunDiagnostics) -> Tangent:
    if memory is None:
        return -g
    if cfg.direction is DirectionKind.BROYDEN:
        params = memory.params
        diag.gamma.append(params.gamma)
        diag.tau.append(params.tau)
        diag.phi.append(params.phi)
        return broyden_direction(g, memory.s, memory.z, params)
    x = g.point
    scalars = CgScalars(
        g_norm2=inner(x, g, g),
        g_prev_norm2=memory.g_prev_norm * memory.g_prev_norm,
        g_dot_t_eta=memory.g_dot_t_eta,
        g_dot_t_g=inner(x, g, memory.t_g),
        y_norm2=inner(x, memory.y, memory.y),
        g_prev_dot_eta=memory.g_prev_dot_eta,
        sigma=memory.sigma,
        hz_mu=cfg.hz_mu,
    )
    beta = cg_beta(cfg.direction, scalars)
    if beta is None:
        return -g
    return cg_direction(g, beta, memory.sigma, memory.t_eta)


def _build_memory(gnorm, gde, eta_norm, ev, cfg, nu_hat, diag) -> StepMemory:
    s = ev.s
    y = ev.g_new - ev.t_g
    z = compute_z(cfg.z_mode, s, y, nu_hat)
    params = schedule_params(s, z, cfg.phi_mode, cfg.xi, cfg.preconvex_mu_reciprocal)
    diag.z_margin.append(params.sz - nu_hat * params.ss)
    diag.z_ratio.append(math.sqrt(params.zz / params.ss))
    sigma = scaling_sigma(ev.x_new, eta_norm, ev.t_eta)
    return StepMemory(
        s=s,
        y=y,
        z=z,
        t_eta=ev.t_eta,
        t_g=ev.t_g,
        params=params,
        sigma=sigma,
        g_prev_norm=gnorm,
        g_prev_dot_eta=gde,
        g_dot_t_eta=ev.dphi,
    )


def solve(
    problem: ProblemInstance,
    x0: Point,
    cfg: SolverConfig,
    callback: Optional[Callable[[IterationTrace], None]] = None,
) -> RunResult:
    """Run the iteration loop from x0 until the stopping rule or a failure."""
    if x0.manifold != problem.manifold:
        raise ContractViolationError(
            f"x0 on {x0.manifold} but the problem lives on {problem.manifold}"
        )
    nu_hat = cfg.resolved_nu_hat()
    t_start = time.perf_counter()

    def now_ms() -> float:
        return (time.perf_counter() - t_start) * 1e3

    diag = RunDiagnostics()
    trace: list[IterationTrace] = []
    x = x0
    f = problem.cost(x)
    g = problem.grad(x)
    memory: Optional[StepMemory] = None
    k = 0
    converged = False
    failure: Optional[FailureReason] = None

    while True:
        gnorm = norm(g)
        if gnorm < cfg.tol:  # strict: tol itself does not stop the run
            converged = True
            break
        if k >= cfg.max_iters:
            failure = FailureReason.MAX_ITERS
            break
        eta = _direction(g, memory, cfg, diag)
        gde = inner(x, g, eta)
        if gde >= -_DESCENT_GUARD * gnorm * gnorm:
            # safeguard: fall back to steepest descent, drop stale memory
            eta = -g
            gde = inner(x, g, eta)
            memory = None
            diag.restarts += 1
        if not gde < 0.0:  # nan, or -|g|^2 underflowed to zero
            failure = FailureReason.NON_FINITE
            break
        diag.gnorm.append(gnorm)
        diag.g_dot_eta.append(gde)
        eta_norm = norm(eta)
        diag.eta_norm.append(eta_norm)
        try:
            ev = search_step(
                problem, x, eta, cfg.line_search, cfg.transport, f0=f, g0=g
            )
        except LineSearchFailedError:
            failure = FailureReason.LINE_SEARCH_FAILED
            break
        except (InvalidPointError, SingularRetractionError, AntipodalPointsError):
            # overflow carried a trial step's arithmetic to inf or nan
            failure = FailureReason.NON_FINITE
            break
        diag.alpha.append(ev.alpha)
        row = IterationTrace(
            iteration=k,
            f=f,
            gnorm=gnorm,
            alpha=ev.alpha,
            g_dot_eta=gde,
            time_ms=now_ms(),
            point=x if cfg.record_trace else None,
            direction=eta if cfg.record_trace else None,
        )
        if cfg.record_trace:
            trace.append(row)
        if callback is not None:
            callback(row)
        x, f, g = ev.x_new, ev.f_new, ev.g_new
        k += 1
        try:
            memory = _build_memory(gnorm, gde, eta_norm, ev, cfg, nu_hat, diag)
        except (DegenerateStepError, DegenerateTransportError, DegenerateZError):
            failure = FailureReason.DEGENERATE_STEP
            break

    final_gnorm = norm(g)
    terminal = IterationTrace(
        iteration=k,
        f=f,
        gnorm=final_gnorm,
        alpha=math.nan,
        g_dot_eta=math.nan,
        time_ms=now_ms(),
        point=x if cfg.record_trace else None,
        direction=None,
    )
    if cfg.record_trace:
        trace.append(terminal)
    if callback is not None:
        callback(terminal)
    return RunResult(
        converged=converged,
        iters=k,
        final_f=f,
        final_gnorm=final_gnorm,
        elapsed=time.perf_counter() - t_start,
        trace=trace,
        failure_reason=failure,
        diagnostics=diag,
    )
