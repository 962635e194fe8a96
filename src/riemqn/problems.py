"""Benchmark objectives with seeded, bit-reproducible instance generation.

Two problems are provided:

* Rayleigh quotient ``f(x) = x' A x`` on the unit sphere, whose minimum over
  the sphere is the smallest eigenvalue of A;
* the off-diagonal cost ``f(X) = sum_i ||offdiag(X' C_i X)||_F^2`` on the
  oblique manifold, a joint-approximate-diagonalization objective.

An instance is fully determined by ``(kind, dims, seed)``: a single
SplitMix64 stream seeded with ``seed`` yields the symmetric matrices
(``(B + B') / 2`` of standard-normal draws, in order) followed by the
ambient draw that is normalized into the initial iterate.  ``KINDS`` maps
each kind to its dims keys and factory.  Dims are positive integers and the
seed an integer, or ``ConfigError`` is raised.  Instance arrays are read-only.

Generation runs in the memory of the data it makes: ``SplitMix64.normal``
writes the draws straight into the matrix (an array of its own, for an odd
draw count too), ``_symmetric_draw`` averages it with its transpose in
place one ``_BLOCK`` block pair at a time, and the constructor checks
symmetry block pair by block pair.  Building a Rayleigh instance therefore
peaks at its matrix plus well under 1 MB of scratch, for any n, and its
bits are those of ``(B + B') / 2`` formed whole.  A matrix of one block
(n <= ``_BLOCK``) takes the whole-matrix expressions instead: their
temporaries are that small anyway, and the block loop's slicing costs
2-3 us a matrix on a 2-vCPU Xeon, about a tenth of generating an offdiag
10 x 5 x 5 instance.  ``OffDiagonalInstance`` checks and freezes
each ``C_i`` it is given, stacks them once, and keeps ``matrices`` as
read-only views of that stack.

Each instance keeps one memo entry: the last ``Point`` it evaluated, held
by a strong reference and matched by identity, with the products that cost
and gradient share (``A x``; ``C_i X`` and ``E_i``).  So ``grad(x)`` right
after ``cost(x)`` computes them once, and every evaluation is still one
``cost`` or ``grad`` call.  The entry is one tuple, replaced as a whole.

``RayleighInstance`` also keeps one ray entry, for the line search in hand
along eta from x.  The search names each trial ``x_t = R_x(alpha eta)``
through the optional hook ``on_ray`` before it evaluates the cost there, and
the entry holds ``A x``, the trial with the longest step ``alpha_1`` whose
product was computed directly, with its scale ``c_1 = |x + alpha_1 eta|`` and
``A x_1``, and the last trial named.  On a ray ``A (x + alpha eta)`` is linear
in alpha, so a shorter trial takes

    A x_t = ((1 - t) A x + t c_1 A x_1) / |x + alpha eta|,   t = alpha / alpha_1,

and only the first trial, and a trial past the longest so far, multiply by
A (the entry never extrapolates, t > 1, where rounding grows with t).  Each
term is within about ``n eps |A|_F`` of its value, and both weights are at
most 1 (``t c_1 <= |x + alpha eta|`` for a tangent eta), so a derived
product is within ``4 n eps |A|_F`` of ``A @ x_t``.

``RayleighInstance.cost_change`` gives the line search ``f(R_x(alpha eta)) - f(x)``
without the cancellation of that difference (see ``linesearch.armijo``).  On
the ray in hand it reads ``A eta = (c_1 A x_1 - A x) / alpha_1`` from the
entry, whose error of order ``eps |A| / alpha_1`` reaches the change only
multiplied by ``alpha^2 <= alpha alpha_1``; off it, it computes ``A eta``
once per direction.  It is not an evaluation of the objective.  The
off-diagonal problem has neither hook: its products cost a few microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Union

import numpy as np

from .errors import ConfigError, ContractViolationError
from .manifolds import (
    Oblique,
    Point,
    Sphere,
    Tangent,
    _freeze,
    _retraction_scale,
    project_tangent,
)
from .rng import SplitMix64
from .schema import integer, positive_integer, read_object

SYMMETRY_TOL = 1e-14
_BLOCK = 128  # rows and columns of a block that symmetrization and the check visit at once


def _reject_non_finite(arr: np.ndarray, what: str) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.argwhere(~finite)
        first = tuple(bad[0].tolist())
        raise ConfigError(f"{what} has {len(bad)} non-finite entries, the first at {first}")


def _block_pairs(n: int):
    """Slices ``(I, J)`` of the ``_BLOCK``-sized blocks of an n x n matrix on and above
    its diagonal; with the mirror ``(J, I)`` of each they cover the matrix once."""
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        for j in range(i, n, _BLOCK):
            yield rows, slice(j, j + _BLOCK)


def _blockwise_defect(a: np.ndarray) -> float:
    """``max |a - a'|`` over the square ``a``, one block pair at a time; nan as soon as
    a difference is nan (an inf or nan entry makes its difference inf or nan)."""
    defect = 0.0
    for rows, cols in _block_pairs(a.shape[0]):
        block = float(np.abs(a[rows, cols] - a[cols, rows].T).max())
        if not block <= defect:
            defect = block
            if block != block:  # nan compares false, so a later block would replace it
                break
    return defect


def _symmetric_matrix(c, kind: str) -> np.ndarray:
    """``c`` as a frozen float64 array, checked to be square and symmetric."""
    a = np.asarray(c, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"{kind} matrices must be square")
    # an inf or nan entry makes the defect inf or nan, so this also rejects
    # non-finite data without a separate pass over the matrix
    if a.shape[0] <= _BLOCK:  # one block: unsliced (see the module docstring)
        defect = float(np.abs(a - a.T).max()) if a.size else 0.0
    else:
        defect = _blockwise_defect(a)
    if not defect <= SYMMETRY_TOL:
        _reject_non_finite(a, "matrix")
        raise ContractViolationError(f"matrix is not symmetric (defect {defect:.3e})")
    return _freeze(a)


def _set_start(instance: ProblemInstance, x0: np.ndarray) -> None:
    """Keep ``x0``, checked and frozen, and the initial ``Point`` built on it."""
    x0 = np.asarray(x0, dtype=np.float64)
    _reject_non_finite(x0, "x0")
    start = Point(instance.manifold, x0)
    object.__setattr__(instance, "x0", start.ambient)
    object.__setattr__(instance, "_start", start)


def _check_point(instance: ProblemInstance, x: Point) -> None:
    if x.manifold is not instance.manifold and x.manifold != instance.manifold:
        raise ContractViolationError(
            f"dimension mismatch: point on {x.manifold}, instance on {instance.manifold}"
        )


class _Ray:
    """The search in hand along eta from x (see the module docstring).

    ``a1`` is 0 and ``c1``, ``ax1`` None until a trial's product is computed
    directly; ``ax`` is None for an entry that ``cost_change`` opened off any
    search; ``scalars`` caches the floor form's ``(m, quad, sq, cross)`` for
    the current ``a1``.
    """

    __slots__ = ("x", "eta", "ax", "a1", "c1", "ax1", "trial", "alpha", "scalars")

    def __init__(self, x, eta, ax):
        self.x, self.eta, self.ax = x, eta, ax
        self.a1, self.c1, self.ax1 = 0.0, None, None
        self.trial, self.alpha, self.scalars = None, 0.0, None


@dataclass(frozen=True)
class RayleighInstance:
    """Rayleigh-quotient minimization over the unit sphere."""

    matrix: np.ndarray
    x0: np.ndarray
    seed: int
    manifold: Sphere = field(init=False, repr=False, compare=False)

    kind: ClassVar[str] = "rayleigh"

    def __post_init__(self):
        a = _symmetric_matrix(self.matrix, self.kind)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "manifold", Sphere(a.shape[0]))
        _set_start(self, self.x0)
        object.__setattr__(self, "_memo", (None, None))
        object.__setattr__(self, "_ray", _Ray(None, None, None))

    def _product(self, x: Point) -> np.ndarray:
        """A x, computed once for the last point evaluated; derived on the ray in hand."""
        point, ax = self._memo
        if point is not x:
            ray = self._ray
            if ray.trial is not x:
                ax = self.matrix @ x.ambient
            elif x is ray.x:  # the step underflowed: retract returned x itself
                ax = ray.ax
            else:
                alpha = ray.alpha
                scale = _retraction_scale(ray.x, ray.eta, alpha, x)
                if alpha <= ray.a1:
                    t = alpha / ray.a1
                    ax = ((1.0 - t) / scale) * ray.ax + (t * ray.c1 / scale) * ray.ax1
                else:
                    ax = self.matrix @ x.ambient
                    ray.a1, ray.c1, ray.ax1, ray.scalars = alpha, scale, ax, None
            # write=False, passed positionally (the keyword parse costs more than the
            # flag), and the frozen instance's dict set as object.__setattr__ would
            ax.setflags(False)
            self.__dict__["_memo"] = (x, ax)
        return ax

    def on_ray(self, x: Point, eta: Tangent, alpha: float, x_new: Point) -> None:
        """Note that the next point evaluated, x_new, is ``retract(x, eta, alpha)``."""
        ray = self._ray
        if ray.x is not x or ray.eta is not eta or ray.ax is None:
            ray = _Ray(x, eta, self._product(x))
            self.__dict__["_ray"] = ray
        ray.trial, ray.alpha = x_new, alpha

    def cost(self, x: Point) -> float:
        _check_point(self, x)
        return float(x.ambient @ self._product(x))

    def grad(self, x: Point) -> Tangent:
        """Tangent projection of the ambient gradient 2 A x."""
        _check_point(self, x)
        return project_tangent(x, 2.0 * self._product(x))

    def cost_change(self, x: Point, eta: Tangent, alpha: float, f0: float, d0: float) -> float:
        """``cost(retract(x, eta, alpha)) - f0`` in closed form, for ``eta`` based at ``x``.

        With ``f0 = x'A x`` and ``d0 = <grad f(x), eta> = 2 (x'A eta - f0 x'eta)`` the
        change is ``(alpha d0 + alpha^2 (eta'A eta - f0 |eta|^2)) / |x + alpha eta|^2``,
        where ``|x + alpha eta|^2 = 1 + 2 alpha x'eta + alpha^2 |eta|^2``.  No term
        cancels to rounding noise as the step shrinks.  The quadratic terms are
        taken of ``u = eta / m``, ``m = max |eta_i|``, with the step ``b = alpha m``,
        so that ``eta'A eta`` cannot overflow while the step itself is finite.
        ``A u`` comes from the ray entry when eta is the search in hand.
        """
        ray = self._ray
        if ray.x is not x or ray.eta is not eta:
            ray = _Ray(x, eta, None)
            self.__dict__["_ray"] = ray
        if ray.scalars is None:
            e = eta.ambient
            m = float(np.maximum.reduce(np.abs(e)))
            u = e / m
            if ray.a1 > 0.0:  # A u = (c_1 A x_1 - A x) / (alpha_1 m)
                au = (ray.c1 * ray.ax1 - ray.ax) / (ray.a1 * m)
            else:
                au = self.matrix @ u
            ray.scalars = (m, float(u @ au), float(u @ u), float(x.ambient @ u))
        m, quad, sq, cross = ray.scalars
        b = alpha * m
        b2 = b * b
        return (alpha * d0 + b2 * (quad - f0 * sq)) / (1.0 + 2.0 * b * cross + b2 * sq)

    def initial_point(self) -> Point:
        return self._start


@dataclass(frozen=True)
class OffDiagonalInstance:
    """Joint off-diagonal minimization over the oblique manifold."""

    matrices: tuple[np.ndarray, ...]
    x0: np.ndarray
    seed: int
    manifold: Oblique = field(init=False, repr=False, compare=False)

    kind: ClassVar[str] = "offdiag"

    def __post_init__(self):
        if not self.matrices:
            raise ConfigError("offdiag instance needs at least one matrix")
        mats = tuple(_symmetric_matrix(c, self.kind) for c in self.matrices)
        x0 = np.asarray(self.x0, dtype=np.float64)
        if x0.ndim != 2 or any(a.shape[0] != x0.shape[0] for a in mats):
            raise ConfigError("the matrices and the initial point must have the same row count")
        stacked = _freeze(np.stack(mats))
        object.__setattr__(self, "_stacked", stacked)
        object.__setattr__(self, "matrices", tuple(stacked))
        object.__setattr__(self, "manifold", Oblique(*x0.shape))
        _set_start(self, x0)
        object.__setattr__(self, "_memo", (None, None, None))

    def _products(self, x: Point) -> tuple[np.ndarray, np.ndarray]:
        """C_i X and E_i = offdiag(X' C_i X), computed once for the last point evaluated."""
        point, cx, e = self._memo
        if point is not x:
            xa = x.ambient
            cx = self._stacked @ xa
            e = xa.T @ cx
            # e is the C-contiguous matmul output, so this view zeroes its diagonals in place
            num, p, _ = e.shape
            e.reshape(num, p * p)[:, :: p + 1] = 0.0
            cx.setflags(False)
            e.setflags(False)
            self.__dict__["_memo"] = (x, cx, e)
        return cx, e

    def cost(self, x: Point) -> float:
        _check_point(self, x)
        _, e = self._products(x)
        return float(np.add.reduce(e * e, axis=None))

    def grad(self, x: Point) -> Tangent:
        """Tangent projection of the ambient gradient 4 sum_i C_i X E_i."""
        _check_point(self, x)
        cx, e = self._products(x)
        return project_tangent(x, 4.0 * np.add.reduce(cx @ e, axis=0))

    def initial_point(self) -> Point:
        return self._start


ProblemInstance = Union[RayleighInstance, OffDiagonalInstance]


def _symmetric_draw(stream: SplitMix64, n: int) -> np.ndarray:
    """``(B + B') / 2`` of the next n x n normal draws, made in the memory of B.

    Both entries of a mirrored pair get ``0.5 * (b_ij + b_ji)``, so the result
    is bit for bit the whole-matrix expression, one block pair at a time.
    """
    b = stream.normal((n, n))
    if n <= _BLOCK:  # one block: unsliced (see the module docstring)
        return 0.5 * (b + b.T)
    for rows, cols in _block_pairs(n):
        upper = b[rows, cols]
        np.multiply(upper + b[cols, rows].T, 0.5, out=upper)
        if rows != cols:
            b[cols, rows] = upper.T
    return b


def _factory_args(kind: str, dims: tuple, seed) -> tuple[list[int], int]:
    """The dims (positive integers, in ``KINDS`` order) and seed of a factory call."""
    keys, _ = KINDS[kind]
    checked = [positive_integer(v, key) for key, v in zip(keys, dims)]
    return checked, integer(seed, "seed")


def rayleigh_instance(n: int, seed: int) -> RayleighInstance:
    (n,), seed = _factory_args(RayleighInstance.kind, (n,), seed)
    stream = SplitMix64(seed)
    a = _symmetric_draw(stream, n)
    x0 = Sphere(n)._normalize(stream.normal(n))
    return RayleighInstance(matrix=a, x0=x0, seed=seed)


def offdiag_instance(n: int, p: int, num_matrices: int, seed: int) -> OffDiagonalInstance:
    (n, p, num_matrices), seed = _factory_args(OffDiagonalInstance.kind, (n, p, num_matrices), seed)
    stream = SplitMix64(seed)
    mats = tuple(_symmetric_draw(stream, n) for _ in range(num_matrices))
    x0 = Oblique(n, p)._normalize(stream.normal((n, p)))
    return OffDiagonalInstance(matrices=mats, x0=x0, seed=seed)


# kind -> (dims keys, in factory-argument order; factory, called as factory(*dims, seed))
KINDS = {
    RayleighInstance.kind: (("n",), rayleigh_instance),
    OffDiagonalInstance.kind: (("n", "p", "N"), offdiag_instance),
}


def check_dims(kind: str, dims: Mapping) -> dict[str, int]:
    """The dims of a ``kind`` instance, each a positive integer, for a known kind."""
    if not (isinstance(kind, str) and kind in KINDS):
        raise ConfigError(f"problem kind must be one of {sorted(KINDS)}, got {kind!r}")
    keys, _ = KINDS[kind]
    return read_object(dims, dict.fromkeys(keys, positive_integer), f"{kind} dims", required=True)


def generate_instance(kind: str, dims: Mapping[str, int], seed: int) -> ProblemInstance:
    """The ``kind`` instance with these dims (a JSON object) and seed."""
    checked = check_dims(kind, dims)
    keys, factory = KINDS[kind]
    return factory(*(checked[key] for key in keys), seed)
