"""Benchmark objectives with seeded, bit-reproducible instance generation.

Two problems are provided:

* Rayleigh quotient ``f(x) = x' A x`` on the unit sphere, whose minimum over
  the sphere is the smallest eigenvalue of A;
* the off-diagonal cost ``f(X) = sum_i ||offdiag(X' C_i X)||_F^2`` on the
  oblique manifold, a joint-approximate-diagonalization objective.

An instance is fully determined by ``(kind, dims, seed)``: a single
SplitMix64 stream seeded with ``seed`` yields the symmetric matrices
(``(B + B') / 2`` of standard-normal draws, in order) followed by the
ambient draw that is normalized into the initial iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Union

import numpy as np

from .errors import ConfigError, ContractViolationError
from .manifolds import Oblique, Point, Sphere, Tangent, project_tangent
from .rng import SplitMix64
from .schema import integer, read_object

SYMMETRY_TOL = 1e-14


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


def _reject_non_finite(arr: np.ndarray, what: str) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.argwhere(~finite)
        first = tuple(bad[0].tolist())
        raise ConfigError(f"{what} has {len(bad)} non-finite entries, the first at {first}")


def _check_symmetric(a: np.ndarray) -> None:
    # an inf or nan entry makes the defect inf or nan, so this also rejects
    # non-finite data without a separate pass over the matrix
    defect = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if not defect <= SYMMETRY_TOL:
        _reject_non_finite(a, "matrix")
        raise ContractViolationError(f"matrix is not symmetric (defect {defect:.3e})")


def _check_point(instance: ProblemInstance, x: Point) -> None:
    if x.manifold != instance.manifold:
        raise ContractViolationError(
            f"dimension mismatch: point on {x.manifold}, instance on {instance.manifold}"
        )


@dataclass(frozen=True)
class RayleighInstance:
    """Rayleigh-quotient minimization over the unit sphere."""

    matrix: np.ndarray
    x0: np.ndarray
    seed: int
    manifold: Sphere = field(init=False, repr=False, compare=False)

    kind: ClassVar[str] = "rayleigh"

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError("rayleigh matrix must be square")
        _check_symmetric(a)
        object.__setattr__(self, "matrix", _frozen(a))
        object.__setattr__(self, "manifold", Sphere(a.shape[0]))
        object.__setattr__(self, "x0", _frozen(self.x0))
        _reject_non_finite(self.x0, "x0")
        object.__setattr__(self, "_start", Point(self.manifold, self.x0))

    def cost(self, x: Point) -> float:
        _check_point(self, x)
        return float(x.ambient @ (self.matrix @ x.ambient))

    def grad(self, x: Point) -> Tangent:
        """Tangent projection of the ambient gradient 2 A x."""
        _check_point(self, x)
        return project_tangent(x, 2.0 * (self.matrix @ x.ambient))

    def initial_point(self) -> Point:
        return self._start

    def descriptor(self) -> dict:
        return {"kind": self.kind, "dims": {"n": self.manifold.n}, "seed": self.seed}


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
        frozen = []
        for c in self.matrices:
            a = np.asarray(c, dtype=np.float64)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ConfigError("offdiag matrices must be square")
            _check_symmetric(a)
            frozen.append(_frozen(a))
        object.__setattr__(self, "matrices", tuple(frozen))
        object.__setattr__(self, "_stacked", _frozen(np.stack(frozen)))
        x0 = np.asarray(self.x0, dtype=np.float64)
        if x0.ndim != 2 or x0.shape[0] != frozen[0].shape[0]:
            raise ConfigError("initial point shape does not match the matrices")
        _reject_non_finite(x0, "x0")
        object.__setattr__(self, "manifold", Oblique(x0.shape[0], x0.shape[1]))
        object.__setattr__(self, "x0", _frozen(x0))
        object.__setattr__(self, "_start", Point(self.manifold, self.x0))

    def _offdiag_parts(self, xa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cx = self._stacked @ xa
        e = xa.T @ cx
        idx = np.arange(e.shape[-1])
        e[:, idx, idx] = 0.0
        return cx, e

    def cost(self, x: Point) -> float:
        _check_point(self, x)
        _, e = self._offdiag_parts(x.ambient)
        return float(np.sum(e * e))

    def grad(self, x: Point) -> Tangent:
        """Tangent projection of the ambient gradient 4 sum_i C_i X E_i."""
        _check_point(self, x)
        cx, e = self._offdiag_parts(x.ambient)
        return project_tangent(x, 4.0 * np.sum(cx @ e, axis=0))

    def initial_point(self) -> Point:
        return self._start

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "dims": {"n": self.manifold.n, "p": self.manifold.p, "N": len(self.matrices)},
            "seed": self.seed,
        }


ProblemInstance = Union[RayleighInstance, OffDiagonalInstance]


def _symmetric_draw(stream: SplitMix64, n: int) -> np.ndarray:
    b = stream.normal((n, n))
    return 0.5 * (b + b.T)


def rayleigh_instance(n: int, seed: int) -> RayleighInstance:
    if n < 1:
        raise ConfigError("n must be positive")
    stream = SplitMix64(seed)
    a = _symmetric_draw(stream, n)
    x0 = Sphere(n)._normalize(stream.normal(n))
    return RayleighInstance(matrix=a, x0=x0, seed=seed)


def offdiag_instance(n: int, p: int, num_matrices: int, seed: int) -> OffDiagonalInstance:
    if n < 1 or p < 1 or num_matrices < 1:
        raise ConfigError("dims must be positive")
    stream = SplitMix64(seed)
    mats = tuple(_symmetric_draw(stream, n) for _ in range(num_matrices))
    x0 = Oblique(n, p)._normalize(stream.normal((n, p)))
    return OffDiagonalInstance(matrices=mats, x0=x0, seed=seed)


def check_dims(kind: str, dims: Mapping) -> dict[str, int]:
    """The dims of a ``kind`` instance, each a positive integer."""
    if kind == RayleighInstance.kind:
        checks = {"n": integer}
    elif kind == OffDiagonalInstance.kind:
        checks = {"n": integer, "p": integer, "N": integer}
    else:
        raise ConfigError(f"unknown problem kind: {kind!r}")
    checked = read_object(dims, checks, f"{kind} dims", required=True)
    if min(checked.values()) < 1:
        raise ConfigError(f"{kind} dims must be positive, got {checked}")
    return checked


def generate_instance(kind: str, dims: Mapping[str, int], seed: int) -> ProblemInstance:
    """Build an instance from its JSON-style descriptor fields."""
    d = check_dims(kind, dims)
    if kind == RayleighInstance.kind:
        return rayleigh_instance(d["n"], seed)
    return offdiag_instance(d["n"], d["p"], d["N"], seed)


def instance_from_descriptor(descriptor: Mapping) -> ProblemInstance:
    try:
        return generate_instance(
            descriptor["kind"], descriptor["dims"], integer(descriptor["seed"], "seed")
        )
    except KeyError as exc:
        raise ConfigError(f"descriptor missing field: {exc}") from exc
