"""Embedded manifolds (unit sphere, oblique), tangent data, and transport maps.

Both manifolds carry the metric induced by the ambient Euclidean/Frobenius
inner product.  The retraction is metric projection: add the tangent vector
in ambient coordinates and renormalize (column-wise on the oblique manifold).

A point is a checked ``Point``.  Tangent data is the ambient float64 array
itself, as a tangent vector of an embedded submanifold is its ambient vector
(Absil, Mahony & Sepulchre 2008, section 3.6.1): ``project_tangent``,
``random_tangent``, ``retract``, ``transport_direction``, ``inner``, ``norm``
and ``tangency_defect`` take and return those arrays (``retract`` returns a
checked ``Point``).  An array passed as tangent data is read as a tangent
vector at the point it comes with; no base is checked.  No function here
builds a ``Tangent``: the class and its operators remain for callers that
wrap them.

After a step alpha * eta from x to x_new = R_x(alpha * eta), one call,
``transport_direction``, carries the step data across: it returns the images
``(T(eta), T(g))`` of the direction and of the gradient at x.  Each image is
one scaled projection onto the tangent space at x_new,
``T(v) = P_{x_new}(v) * w``; the step's own image is ``s = alpha * T(eta)``,
which the caller that reads it forms.  Three transport-like maps are available:

* ``DIFFERENTIATED_RETRACTION`` -- the derivative of the retraction, the
  default and a genuine (linear) vector transport.  For this retraction both
  weights are ``1 / |x + alpha * eta|``, the retraction's scale (column norms
  on the oblique manifold; Absil, Mahony & Sepulchre 2008, section 8.1);
* ``PROJECTION`` -- orthogonal projection onto the tangent space at x_new:
  both weights are 1;
* ``INVERSE_RETRACTION`` -- the negated inverse retraction of x taken at
  x_new, defined only for the displacement itself.  Since
  ``x = |x + alpha * eta| x_new - alpha * eta``, it is
  ``-R^{-1}_{x_new}(x) = alpha * P_{x_new}(eta) / <x_new, x>`` column by
  column, so eta's weight is ``1 / <x_new, x>``; the gradient falls back to
  projection (weight 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .schema import check_fields, positive_integer

POINT_TOL = 1e-12

_FLOAT64 = np.dtype(np.float64)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``float(np.vdot(a, b))`` of two float64 arrays of one shape, bit for bit.

    Two arrays that are no views are dotted with their own ``dot`` (of their C-order
    ravels past 1-D), which is ``np.vdot`` without its dispatch.  A view goes to
    ``np.vdot`` itself: how it sums a strided or reversed view follows the view's
    strides, so no contiguous copy gives its bits.
    """
    if a.base is None and b.base is None:
        if a.ndim == 1:
            return float(a.dot(b))
        return float(a.ravel().dot(b.ravel()))
    return float(np.vdot(a, b))


def _vector_norm(arr: np.ndarray) -> float:
    """Euclidean/Frobenius norm, computed as ``np.linalg.norm(arr)`` computes it.

    A 1-D array that is no view is contiguous, and so its own ``ravel``.
    """
    v = arr if arr.ndim == 1 and arr.base is None else arr.ravel(order="K")
    return math.sqrt(v.dot(v))


def _column_norms(arr: np.ndarray) -> np.ndarray:
    """Column norms, computed as ``np.linalg.norm(arr, axis=0)`` computes them."""
    return np.sqrt(np.add.reduce(arr * arr, axis=0))


def _ambient_array(value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float64 array of ``shape``; any other shape raises ``InvalidPointError``.

    ``np.asarray`` is called only when ``value`` is not a float64 ndarray already.
    """
    if type(value) is not np.ndarray or value.dtype is not _FLOAT64:
        value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise InvalidPointError(f"expected ambient shape {shape}, got {value.shape}")
    return value


class TransportKind(Enum):
    """Which map carries tangent data to the next iterate.

    Each value is the code that solver ids and JSON configs use: the
    differentiated retraction ``dr``, the projection ``proj`` and the inverse
    retraction ``invret``.
    """

    DIFFERENTIATED_RETRACTION = "dr"
    PROJECTION = "proj"
    INVERSE_RETRACTION = "invret"


@dataclass(frozen=True)
class Sphere:
    """Unit vectors in R^n, n >= 1 (else ``ConfigError``); ``ambient_shape`` is stored once."""

    n: int
    ambient_shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, {"n": positive_integer})
        object.__setattr__(self, "ambient_shape", (self.n,))

    def point_defect(self, arr: np.ndarray) -> float:
        return abs(_vector_norm(arr) - 1.0)

    def tangent_defect(self, x_arr: np.ndarray, t_arr: np.ndarray) -> float:
        return abs(float(np.dot(x_arr, t_arr)))

    def _scale(self, arr: np.ndarray) -> float:
        """The norm that normalizes ``arr``; a zero norm is singular."""
        nrm = _vector_norm(arr)
        if nrm == 0.0:
            raise SingularRetractionError("cannot normalize a zero vector")
        return nrm

    def _normalize(self, arr: np.ndarray) -> np.ndarray:
        return arr / self._scale(arr)

    def _project(self, x_arr: np.ndarray, v_arr: np.ndarray) -> np.ndarray:
        return v_arr - x_arr.dot(v_arr) * x_arr

    def _overlap(self, w_arr, v_arr) -> float:
        """<w, v>, which the inverse retraction of v at w divides by; it must be positive."""
        d = float(np.dot(w_arr, v_arr))
        if d <= 0.0:
            raise AntipodalPointsError(
                "inverse retraction undefined: points are orthogonal or antipodal"
            )
        return d


@dataclass(frozen=True)
class Oblique:
    """n x p matrices of unit columns, n, p >= 1 (else ``ConfigError``): a product of
    spheres; ``ambient_shape`` is stored once."""

    n: int
    p: int
    ambient_shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, {"n": positive_integer, "p": positive_integer})
        object.__setattr__(self, "ambient_shape", (self.n, self.p))

    # The column maps call the ufunc reductions that np.sum, np.max and np.any
    # wrap (same results, without the wrappers' Python dispatch), and test for
    # a zero norm with one count_nonzero (ndarray __contains__ costs ~2 us).

    def point_defect(self, arr: np.ndarray) -> float:
        return float(np.maximum.reduce(np.abs(_column_norms(arr) - 1.0)))

    def tangent_defect(self, x_arr: np.ndarray, t_arr: np.ndarray) -> float:
        return float(np.maximum.reduce(np.abs(np.add.reduce(x_arr * t_arr, axis=0))))

    def _scale(self, arr: np.ndarray) -> np.ndarray:
        """The column norms that normalize ``arr``; a zero column is singular."""
        norms = _column_norms(arr)
        if np.count_nonzero(norms) != norms.size:  # -0.0 is a zero, nan is not
            raise SingularRetractionError("cannot normalize a zero column")
        return norms

    def _normalize(self, arr: np.ndarray) -> np.ndarray:
        return arr / self._scale(arr)

    def _project(self, x_arr, v_arr) -> np.ndarray:
        return v_arr - x_arr * np.add.reduce(x_arr * v_arr, axis=0)

    def _overlap(self, w_arr, v_arr) -> np.ndarray:
        """The column products <w_j, v_j>, which the inverse retraction divides by; each
        must be positive."""
        d = np.add.reduce(w_arr * v_arr, axis=0)
        if np.logical_or.reduce(d <= 0.0):
            raise AntipodalPointsError(
                "inverse retraction undefined: a column pair is orthogonal or antipodal"
            )
        return d


Manifold = Union[Sphere, Oblique]


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, so checked data cannot change; a view is copied first.

    A view is an array with a ``base``, which is cheaper to read than
    ``flags.owndata``.  A writable view of ``arr`` made before this call still
    writes through.  ``Point`` makes these steps inline.
    """
    if arr.base is not None:
        arr = arr.copy()
    arr.setflags(False)
    return arr


# Point and Tangent call __post_init__ through the class, so a wrapper set there sees
# every construction.  Point, built for every trial, stores its fields into __dict__
# itself (the generated __init__ calls object.__setattr__ per field) and makes every
# check inline in that one frame (a call costs about what a check does);
# _ambient_array is called only for an array it must coerce or reject.
@dataclass(frozen=True, eq=False, init=False)
class Point:
    """A point on a manifold, checked against the constraint; its array is frozen.

    The array is coerced to float64 and checked for the manifold's shape, then
    for the constraint, before it is frozen (a copy when it is a view), so a
    rejected array stays writable.
    """

    manifold: Manifold
    ambient: np.ndarray

    def __init__(self, manifold: Manifold, ambient: np.ndarray):
        d = self.__dict__
        d["manifold"], d["ambient"] = manifold, ambient
        self.__post_init__()

    def __post_init__(self):
        manifold, arr = self.manifold, self.ambient
        shape = manifold.ambient_shape
        if type(arr) is not np.ndarray or arr.dtype is not _FLOAT64 or arr.shape != shape:
            arr = _ambient_array(arr, shape)
        defect = manifold.point_defect(arr)
        if not defect <= POINT_TOL:
            raise InvalidPointError(
                f"point violates the manifold constraint by {defect:.3e}"
            )
        if arr.base is not None:
            arr = arr.copy()
        arr.setflags(False)
        self.__dict__["ambient"] = arr


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector at a specific point, with base-checked arithmetic.

    The array is coerced to float64, checked for the shape of the point's
    array (which the point's own check fixed) and frozen, a copy when it is a
    view.  Tangency is not verified here; ``tangency_defect`` measures it.
    No riemqn function takes or returns a ``Tangent``: tangent data is an
    ambient array everywhere (see the module docstring).
    """

    point: Point
    ambient: np.ndarray

    def __post_init__(self):
        self.__dict__["ambient"] = _freeze(_ambient_array(self.ambient, self.point.ambient.shape))

    def __add__(self, other: "Tangent") -> "Tangent":
        if not isinstance(other, Tangent):
            return NotImplemented
        _require_base(self.point, other, "other")
        return Tangent(self.point, self.ambient + other.ambient)

    def __sub__(self, other: "Tangent") -> "Tangent":
        if not isinstance(other, Tangent):
            return NotImplemented
        _require_base(self.point, other, "other")
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


def _require_base(x: Point, t: Tangent, name: str) -> None:
    p = t.point
    if p is not x and not (p.manifold == x.manifold and np.array_equal(p.ambient, x.ambient)):
        raise ContractViolationError(f"{name} is not based at the given point")


def inner(x: Point, u: np.ndarray, v: np.ndarray) -> float:
    """Riemannian inner product of the ambient arrays u and v of two tangent vectors at x.

    x names the point; the induced (ambient Euclidean/Frobenius) metric does not
    depend on it.  The product is ``_dot``: ``np.vdot`` of the two arrays, bit for bit.
    """
    return _dot(u, v)


def norm(t: np.ndarray) -> float:
    """Induced norm of the ambient array of a tangent vector.

    A vector whose squared entries all underflow is measured again scaled by
    its largest entry, so a nonzero vector never has norm 0.
    """
    n = _vector_norm(t)
    if n == 0.0 and t.any():
        scale = float(np.max(np.abs(t)))
        n = scale * _vector_norm(t / scale)
    return n


def tangency_defect(x: Point, t: np.ndarray) -> float:
    """How far the ambient array t is from the tangent space at x."""
    return x.manifold.tangent_defect(x.ambient, t)


def project_tangent(x: Point, v_ambient) -> np.ndarray:
    """The ambient array of the orthogonal projection of an ambient vector onto the
    tangent space at x; ``v_ambient`` of another shape raises ``InvalidPointError``."""
    arr = _ambient_array(v_ambient, x.manifold.ambient_shape)
    return x.manifold._project(x.ambient, arr)


def retract(x: Point, eta: np.ndarray, alpha: float = 1.0) -> Point:
    """Metric-projection retraction of the step alpha * eta: renormalize x + alpha * eta.

    ``eta`` is the ambient array of a tangent vector at x.  ``retract(x, eta, alpha)``
    is bitwise ``retract(x, alpha * eta)``.  A zero step returns x itself, so
    ``retract(x, eta, 0.0)`` is exact.  The new point keeps the scale it was divided by,
    ``|x + alpha * eta|`` (column norms on the oblique manifold), so the differentiated
    retraction's weights need no second norm.
    """
    step = float(alpha) * eta
    if not np.count_nonzero(step):
        return x
    arr = x.ambient + step
    scale = x.manifold._scale(arr)
    x_new = Point(x.manifold, arr / scale)
    x_new.__dict__["_retraction_scale"] = scale
    return x_new


def _retraction_scale(x: Point, eta: np.ndarray, alpha: float, x_new: Point):
    """``|x + alpha * eta|``, the scale ``retract(x, eta, alpha)`` divided by to reach x_new.

    Read from x_new when retract made it; when the step underflowed and retract
    returned x itself, or for a point retract did not make, it is computed as
    retract computes it (``|x|`` for a vanished step).
    """
    scale = x_new.__dict__.get("_retraction_scale")
    if scale is None or x_new is x:
        scale = x.manifold._scale(x.ambient + float(alpha) * eta)
    return scale


def transport_direction(
    kind: TransportKind, x: Point, eta: np.ndarray, alpha: float, g: np.ndarray, x_new: Point
) -> tuple[np.ndarray, np.ndarray]:
    """Carry the step data at x to x_new = retract(x, eta, alpha).

    ``eta`` and ``g`` are the ambient arrays of the direction and the gradient at x.
    Returns ``(t_eta, t_g)``: the arrays of their images, both tangent at x_new.  With
    u = x_new, ``t_eta = P_u(eta) * w_eta`` and ``t_g = P_u(g) * w_g``: the weights are
    ``1 / |x + alpha * eta|`` for the differentiated retraction, 1 for projection, and
    ``w_eta = 1 / <u, x>``, ``w_g = 1`` for the inverse retraction.  The step image is
    ``s = alpha * t_eta``, formed by its reader (``-R_u^{-1}(x)`` for the inverse
    retraction).  Two projections in all; a step that is not positive and finite raises
    ``ContractViolationError`` before either.
    """
    if not 0.0 < alpha < math.inf:
        raise ContractViolationError(f"step size {alpha!r} is not positive and finite")
    manifold, u = x_new.manifold, x_new.ambient
    if manifold is not x.manifold:  # a point on x's manifold has x's shape already
        u = _ambient_array(u, x.ambient.shape)
    t_eta, t_g = manifold._project(u, eta), manifold._project(u, g)
    if kind is TransportKind.DIFFERENTIATED_RETRACTION:
        scale = _retraction_scale(x, eta, alpha, x_new)
        t_eta, t_g = t_eta / scale, t_g / scale
    elif kind is TransportKind.INVERSE_RETRACTION:
        t_eta = t_eta / manifold._overlap(u, x.ambient)
    elif kind is not TransportKind.PROJECTION:
        raise ContractViolationError(f"unknown transport kind: {kind!r}")
    return t_eta, t_g


def random_point(manifold: Manifold, rng: SplitMix64) -> Point:
    """Normalized standard-normal draw."""
    draw = rng.normal(manifold.ambient_shape)
    return Point(manifold, manifold._normalize(draw))


def random_tangent(x: Point, rng: SplitMix64, unit: bool = False) -> np.ndarray:
    """The ambient array of the projection of a standard-normal ambient draw at x;
    optionally normalized."""
    t = project_tangent(x, rng.normal(x.manifold.ambient_shape))
    if unit:
        n = norm(t)
        if n == 0.0:
            raise DegenerateTransportError("random tangent vanished")
        t = t / n
    return t
