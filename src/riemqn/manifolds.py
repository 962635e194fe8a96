"""Embedded manifolds (unit sphere, oblique), tangent data, and transport maps.

Both manifolds carry the metric induced by the ambient Euclidean/Frobenius
inner product.  The retraction is metric projection: add the tangent vector
in ambient coordinates and renormalize (column-wise on the oblique manifold).

After a step alpha * eta from x to x_new = R_x(alpha * eta), one call,
``transport_direction``, carries the step data across: it returns the images
``(T(eta), s, T(g))`` of the direction, of the step and of the gradient at x.
Three transport-like maps are available:

* ``DIFFERENTIATED_RETRACTION`` -- the derivative of the retraction, the
  default and a genuine (linear) vector transport.  ``x + alpha * eta`` is
  normalized once and the map is applied to all three vectors;
* ``PROJECTION`` -- orthogonal projection onto the tangent space at x_new;
* ``INVERSE_RETRACTION`` -- the negated inverse retraction of x taken at
  x_new.  It is defined only for the displacement itself: it gives s, and
  ``T(eta) = s / alpha``.  The gradient falls back to projection.

Every transport output is re-projected onto the destination tangent space to
suppress accumulated drift, so tangency holds to machine precision rather
than merely to the documented tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import (
    AntipodalPointsError,
    ContractViolationError,
    DegenerateTransportError,
    InvalidPointError,
    SingularRetractionError,
)
from .rng import SplitMix64

POINT_TOL = 1e-12
TANGENT_TOL = 1e-10


class TransportKind(Enum):
    """Which map carries tangent data to the next iterate."""

    DIFFERENTIATED_RETRACTION = "differentiated_retraction"
    PROJECTION = "projection"
    INVERSE_RETRACTION = "inverse_retraction"


@dataclass(frozen=True)
class Sphere:
    """Unit vectors in R^n."""

    n: int

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.n,)

    @property
    def dim(self) -> int:
        return self.n - 1

    def point_defect(self, arr: np.ndarray) -> float:
        return abs(float(np.linalg.norm(arr)) - 1.0)

    def tangent_defect(self, x_arr: np.ndarray, t_arr: np.ndarray) -> float:
        return abs(float(np.dot(x_arr, t_arr)))

    def _normalize(self, arr: np.ndarray) -> np.ndarray:
        nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise SingularRetractionError("cannot normalize a zero vector")
        return arr / nrm

    def _project(self, x_arr: np.ndarray, v_arr: np.ndarray) -> np.ndarray:
        return v_arr - np.dot(x_arr, v_arr) * x_arr

    def _transport_dr(self, x_arr, eta_arr, vs) -> list[np.ndarray]:
        y = x_arr + eta_arr
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            raise SingularRetractionError("transport through a singular retraction")
        u = y / ny
        return [(v - u * np.dot(u, v)) / ny for v in vs]

    def _inverse_retraction(self, w_arr, v_arr) -> np.ndarray:
        d = float(np.dot(w_arr, v_arr))
        if d <= 0.0:
            raise AntipodalPointsError(
                "inverse retraction undefined: points are orthogonal or antipodal"
            )
        return v_arr / d - w_arr


@dataclass(frozen=True)
class Oblique:
    """n x p matrices whose columns are unit vectors (a product of spheres)."""

    n: int
    p: int

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.n, self.p)

    @property
    def dim(self) -> int:
        return (self.n - 1) * self.p

    def point_defect(self, arr: np.ndarray) -> float:
        return float(np.max(np.abs(np.linalg.norm(arr, axis=0) - 1.0)))

    def tangent_defect(self, x_arr: np.ndarray, t_arr: np.ndarray) -> float:
        return float(np.max(np.abs(np.sum(x_arr * t_arr, axis=0))))

    def _normalize(self, arr: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(arr, axis=0)
        if np.any(norms == 0.0):
            raise SingularRetractionError("cannot normalize a zero column")
        return arr / norms

    def _project(self, x_arr, v_arr) -> np.ndarray:
        return v_arr - x_arr * np.sum(x_arr * v_arr, axis=0)

    def _transport_dr(self, x_arr, eta_arr, vs) -> list[np.ndarray]:
        y = x_arr + eta_arr
        norms = np.linalg.norm(y, axis=0)
        if np.any(norms == 0.0):
            raise SingularRetractionError("transport through a singular retraction")
        u = y / norms
        return [(v - u * np.sum(u * v, axis=0)) / norms for v in vs]

    def _inverse_retraction(self, w_arr, v_arr) -> np.ndarray:
        d = np.sum(w_arr * v_arr, axis=0)
        if np.any(d <= 0.0):
            raise AntipodalPointsError(
                "inverse retraction undefined: a column pair is orthogonal or antipodal"
            )
        return v_arr / d - w_arr


Manifold = Union[Sphere, Oblique]


def _freeze(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Point:
    """A point on a manifold.  Validated against the constraint on construction."""

    manifold: Manifold
    ambient: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.ambient, dtype=np.float64)
        if arr.shape != self.manifold.ambient_shape:
            raise InvalidPointError(
                f"expected ambient shape {self.manifold.ambient_shape}, got {arr.shape}"
            )
        defect = self.manifold.point_defect(arr)
        if not defect <= POINT_TOL:
            raise InvalidPointError(
                f"point violates the manifold constraint by {defect:.3e}"
            )
        object.__setattr__(self, "ambient", _freeze(arr))


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector at a specific point.

    Tangency is guaranteed by the producing operations (projection, transport,
    gradients) and is not re-verified here; ``tangency_defect`` measures it.
    """

    point: Point
    ambient: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.ambient, dtype=np.float64)
        if arr.shape != self.point.manifold.ambient_shape:
            raise InvalidPointError(
                f"expected ambient shape {self.point.manifold.ambient_shape}, got {arr.shape}"
            )
        object.__setattr__(self, "ambient", _freeze(arr))

    def _require_same_base(self, other: "Tangent") -> None:
        if not points_equal(self.point, other.point):
            raise ContractViolationError("tangent vectors are based at different points")

    def __add__(self, other: "Tangent") -> "Tangent":
        if not isinstance(other, Tangent):
            return NotImplemented
        self._require_same_base(other)
        return Tangent(self.point, self.ambient + other.ambient)

    def __sub__(self, other: "Tangent") -> "Tangent":
        if not isinstance(other, Tangent):
            return NotImplemented
        self._require_same_base(other)
        return Tangent(self.point, self.ambient - other.ambient)

    def __neg__(self) -> "Tangent":
        return Tangent(self.point, -self.ambient)

    def __mul__(self, scalar) -> "Tangent":
        if not isinstance(scalar, (int, float, np.integer, np.floating)):
            return NotImplemented
        return Tangent(self.point, float(scalar) * self.ambient)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Tangent":
        if not isinstance(scalar, (int, float, np.integer, np.floating)):
            return NotImplemented
        return Tangent(self.point, self.ambient / float(scalar))


def points_equal(a: Point, b: Point) -> bool:
    """Same manifold and bitwise-equal ambient coordinates."""
    if a is b:
        return True
    return a.manifold == b.manifold and np.array_equal(a.ambient, b.ambient)


def _require_base(x: Point, t: Tangent, name: str) -> None:
    if not points_equal(x, t.point):
        raise ContractViolationError(f"{name} is not based at the given point")


def inner(x: Point, u: Tangent, v: Tangent) -> float:
    """Riemannian inner product (ambient Euclidean/Frobenius)."""
    _require_base(x, u, "u")
    _require_base(x, v, "v")
    return float(np.vdot(u.ambient, v.ambient))


def norm(t: Tangent) -> float:
    """Induced norm of a tangent vector."""
    return float(np.linalg.norm(t.ambient))


def tangency_defect(t: Tangent) -> float:
    """How far a vector is from the tangent space of its base point."""
    return t.point.manifold.tangent_defect(t.point.ambient, t.ambient)


def project_tangent(x: Point, v_ambient) -> Tangent:
    """Orthogonal projection of an ambient vector onto the tangent space at x."""
    arr = np.asarray(v_ambient, dtype=np.float64)
    if arr.shape != x.manifold.ambient_shape:
        raise InvalidPointError(
            f"expected ambient shape {x.manifold.ambient_shape}, got {arr.shape}"
        )
    return Tangent(x, x.manifold._project(x.ambient, arr))


def retract(x: Point, eta: Tangent) -> Point:
    """Metric-projection retraction: renormalize x + eta.

    A zero displacement returns x itself, so ``retract(x, 0)`` is exact.
    """
    _require_base(x, eta, "eta")
    if not eta.ambient.any():
        return x
    return Point(x.manifold, x.manifold._normalize(x.ambient + eta.ambient))


def inverse_retraction(w: Point, v: Point) -> Tangent:
    """The tangent vector at w whose retraction reaches v.

    Undefined (raises) when some column of v lies in the closed hemisphere
    opposite w, where the normalization retraction cannot be inverted.
    """
    if w.manifold != v.manifold:
        raise ContractViolationError("points live on different manifolds")
    return Tangent(w, w.manifold._inverse_retraction(w.ambient, v.ambient))


def transport_direction(
    kind: TransportKind, x: Point, eta: Tangent, alpha: float, g: Tangent, x_new: Point
) -> tuple[Tangent, Tangent, Tangent]:
    """Carry the step data at x to x_new = retract(x, alpha * eta).

    Returns ``(t_eta, s, t_g)``: the images of the direction eta, of the step
    alpha * eta and of the gradient g, all tangent at x_new.  The
    inverse-retraction map is defined only for the displacement itself: it
    gives ``s = -R_{x_new}^{-1}(x)`` and ``t_eta = s / alpha``, and g falls
    back to projection onto the tangent space at x_new.
    """
    _require_base(x, eta, "eta")
    _require_base(x, g, "g")
    if not alpha > 0.0:
        raise ContractViolationError("step size must be positive")
    if kind is TransportKind.INVERSE_RETRACTION:
        raw = -x_new.manifold._inverse_retraction(x_new.ambient, x.ambient)
        s = project_tangent(x_new, raw)
        return s / alpha, s, project_tangent(x_new, g.ambient)
    step = float(alpha) * eta.ambient
    if kind is TransportKind.DIFFERENTIATED_RETRACTION:
        raws = x.manifold._transport_dr(x.ambient, step, (eta.ambient, step, g.ambient))
    elif kind is TransportKind.PROJECTION:
        raws = (eta.ambient, step, g.ambient)
    else:
        raise ContractViolationError(f"unknown transport kind: {kind!r}")
    return tuple(project_tangent(x_new, raw) for raw in raws)


def scaling_sigma(x_next: Point, eta_prev_norm: float, t_eta: Tangent) -> float:
    """Scaling factor clamping a transported direction to its original length."""
    _require_base(x_next, t_eta, "t_eta")
    if not eta_prev_norm > 0.0:
        raise ContractViolationError("previous direction norm must be positive")
    tn = norm(t_eta)
    if tn == 0.0:
        raise DegenerateTransportError("transported direction has zero norm")
    return min(1.0, eta_prev_norm / tn)


def random_point(manifold: Manifold, rng: SplitMix64) -> Point:
    """Normalized standard-normal draw."""
    draw = rng.normal(manifold.ambient_shape)
    return Point(manifold, manifold._normalize(draw))


def random_tangent(x: Point, rng: SplitMix64, unit: bool = False) -> Tangent:
    """Projection of a standard-normal ambient draw; optionally normalized."""
    t = project_tangent(x, rng.normal(x.manifold.ambient_shape))
    if unit:
        n = norm(t)
        if n == 0.0:
            raise DegenerateTransportError("random tangent vanished")
        t = t / n
    return t
