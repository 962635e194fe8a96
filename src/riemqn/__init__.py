"""Riemannian optimization with memoryless spectral-scaling Broyden directions.

Solvers run on two embedded manifolds (unit sphere, oblique) with pluggable
transport maps, a transported-Wolfe line search, conjugate-gradient
baselines, seeded benchmark problems, and Dolan-Moré performance profiling.
"""

from .directions import (
    DEFAULT_NU_HAT,
    BroydenParams,
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
    sufficient_descent_kappa,
)
from .errors import (
    AntipodalPointsError,
    ConfigError,
    ContractViolationError,
    DegenerateStepError,
    DegenerateTransportError,
    DegenerateZError,
    EmptyTableError,
    InvalidPointError,
    LineSearchFailedError,
    OutOfHypothesisError,
    RiemqnError,
    SingularRetractionError,
)
from .linesearch import LineSearchConfig, StepEval, search_step, wolfe_check
from .manifolds import (
    Oblique,
    Point,
    Sphere,
    Tangent,
    TransportKind,
    inner,
    inverse_retraction,
    norm,
    points_equal,
    project_tangent,
    random_point,
    random_tangent,
    retract,
    scaling_sigma,
    tangency_defect,
    transport_direction,
)
from .problems import (
    OffDiagonalInstance,
    ProblemInstance,
    RayleighInstance,
    generate_instance,
    instance_from_descriptor,
    offdiag_instance,
    rayleigh_instance,
)
from .profiles import ProfileTable, performance_profile
from .rng import SplitMix64
from .solver import (
    FailureReason,
    IterationTrace,
    RunDiagnostics,
    RunResult,
    SolverConfig,
    check_stop,
    config_from_id,
    solve,
    solver_id,
)

__version__ = "0.1.0"
