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

from dataclasses import dataclass
from typing import ClassVar, Mapping, Union

import numpy as np

from .errors import ConfigError, ContractViolationError
from .manifolds import Oblique, Point, Sphere, Tangent, project_tangent
from .rng import SplitMix64

SYMMETRY_TOL = 1e-14


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


def _check_symmetric(a: np.ndarray) -> None:
    # an inf or nan entry makes the defect inf or nan, so this also rejects
    # non-finite data without a separate pass over the matrix
    defect = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if not defect <= SYMMETRY_TOL:
        bad = np.argwhere(~np.isfinite(a))
        if len(bad):
            first = tuple(bad[0].tolist())
            raise ConfigError(f"matrix has {len(bad)} non-finite entries, the first at {first}")
        raise ContractViolationError(f"matrix is not symmetric (defect {defect:.3e})")


@dataclass(frozen=True)
class RayleighInstance:
    """Rayleigh-quotient minimization over the unit sphere."""

    matrix: np.ndarray
    x0: np.ndarray
    seed: int

    kind: ClassVar[str] = "rayleigh"

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError("rayleigh matrix must be square")
        _check_symmetric(a)
        object.__setattr__(self, "matrix", _frozen(a))
        object.__setattr__(self, "x0", _frozen(self.x0))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def manifold(self) -> Sphere:
        return Sphere(self.n)

    def _check(self, x: Point) -> None:
        if x.manifold != self.manifold:
            raise ContractViolationError(
                f"dimension mismatch: point on {x.manifold}, instance on {self.manifold}"
            )

    def cost(self, x: Point) -> float:
        self._check(x)
        return float(x.ambient @ (self.matrix @ x.ambient))

    def grad(self, x: Point) -> Tangent:
        """Tangent projection of the ambient gradient 2 A x."""
        self._check(x)
        return project_tangent(x, 2.0 * (self.matrix @ x.ambient))

    def initial_point(self) -> Point:
        return Point(self.manifold, self.x0)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "dims": {"n": self.n}, "seed": self.seed}


@dataclass(frozen=True)
class OffDiagonalInstance:
    """Joint off-diagonal minimization over the oblique manifold."""

    matrices: tuple[np.ndarray, ...]
    x0: np.ndarray
    seed: int

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
        object.__setattr__(self, "x0", _frozen(x0))

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def p(self) -> int:
        return self.x0.shape[1]

    @property
    def num_matrices(self) -> int:
        return len(self.matrices)

    @property
    def manifold(self) -> Oblique:
        return Oblique(self.n, self.p)

    def _check(self, x: Point) -> None:
        if x.manifold != self.manifold:
            raise ContractViolationError(
                f"dimension mismatch: point on {x.manifold}, instance on {self.manifold}"
            )

    def _offdiag_parts(self, xa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cx = self._stacked @ xa
        e = xa.T @ cx
        idx = np.arange(e.shape[-1])
        e[:, idx, idx] = 0.0
        return cx, e

    def cost(self, x: Point) -> float:
        self._check(x)
        _, e = self._offdiag_parts(x.ambient)
        return float(np.sum(e * e))

    def grad(self, x: Point) -> Tangent:
        """Tangent projection of the ambient gradient 4 sum_i C_i X E_i."""
        self._check(x)
        cx, e = self._offdiag_parts(x.ambient)
        return project_tangent(x, 4.0 * np.sum(cx @ e, axis=0))

    def initial_point(self) -> Point:
        return Point(self.manifold, self.x0)

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "dims": {"n": self.n, "p": self.p, "N": self.num_matrices},
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


def generate_instance(kind: str, dims: Mapping[str, int], seed: int) -> ProblemInstance:
    """Build an instance from its JSON-style descriptor fields."""
    if kind == RayleighInstance.kind:
        if "n" not in dims:
            raise ConfigError("rayleigh dims require 'n'")
        return rayleigh_instance(int(dims["n"]), seed)
    if kind == OffDiagonalInstance.kind:
        missing = {"n", "p", "N"} - set(dims)
        if missing:
            raise ConfigError(f"offdiag dims require {sorted(missing)}")
        return offdiag_instance(int(dims["n"]), int(dims["p"]), int(dims["N"]), seed)
    raise ConfigError(f"unknown problem kind: {kind!r}")


def instance_from_descriptor(descriptor: Mapping) -> ProblemInstance:
    try:
        return generate_instance(
            descriptor["kind"], descriptor["dims"], int(descriptor["seed"])
        )
    except KeyError as exc:
        raise ConfigError(f"descriptor missing field: {exc}") from exc
