import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemqn import (
    AntipodalPointsError,
    ContractViolationError,
    InvalidPointError,
    Oblique,
    OffDiagonalInstance,
    Point,
    RayleighInstance,
    SingularRetractionError,
    Sphere,
    SplitMix64,
    Tangent,
    TransportKind,
    inner,
    norm,
    offdiag_instance,
    project_tangent,
    random_point,
    random_tangent,
    rayleigh_instance,
    retract,
    tangency_defect,
    transport_direction,
)
from riemqn import manifolds
from riemqn.manifolds import _column_norms, _dot, _vector_norm

from _support import LAYOUTS, layout

DR = TransportKind.DIFFERENTIATED_RETRACTION
PROJ = TransportKind.PROJECTION
INVRET = TransportKind.INVERSE_RETRACTION

MANIFOLDS = [Sphere(6), Oblique(5, 3)]


def sphere_point(*coords):
    return Point(Sphere(len(coords)), np.array(coords, dtype=float))


class TestPointInvariants:
    def test_valid_points(self):
        Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
        Point(Oblique(2, 2), np.eye(2))

    def test_non_unit_vector_rejected(self):
        with pytest.raises(InvalidPointError):
            Point(Sphere(2), np.array([1.0, 1.0]))

    def test_non_unit_column_rejected(self):
        bad = np.eye(3)[:, :2]
        bad[0, 0] = 1.5
        with pytest.raises(InvalidPointError):
            Point(Oblique(3, 2), bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidPointError):
            Point(Sphere(3), np.array([1.0, 0.0]))

    def test_ambient_is_read_only(self):
        x = sphere_point(1.0, 0.0)
        with pytest.raises(ValueError):
            x.ambient[0] = 2.0

    def test_array_passed_in_is_frozen(self):
        # a Point cannot be moved off the manifold through the caller's array
        y = np.array([1.0, 0.0, 0.0])
        x = Point(Sphere(3), y)
        with pytest.raises(ValueError):
            y[0] = 5.0
        v = np.array([0.0, 1.0, 0.0])
        Tangent(x, v)
        with pytest.raises(ValueError):
            v[1] = 2.0
        assert x.ambient[0] == 1.0


def _sliced(arr):
    """A view of ``arr`` in the top-left corner of a larger writable base."""
    base = np.zeros(tuple(d + 1 for d in arr.shape))
    base[tuple(slice(0, d) for d in arr.shape)] = arr
    return base, base[tuple(slice(0, d) for d in arr.shape)]


def _point_from_view():
    base, view = _sliced(np.eye(4)[:, :2])
    return base, Point(Oblique(4, 2), view).ambient


def _sphere_point_from_view():
    base, view = _sliced(np.array([1.0, 0.0, 0.0]))
    return base, Point(Sphere(3), view).ambient


def _tangent_from_view():
    base, view = _sliced(np.array([0.0, 1.0, 0.0]))
    return base, Tangent(sphere_point(1.0, 0.0, 0.0), view).ambient


def _rayleigh_matrix_from_view():
    ray = rayleigh_instance(4, seed=3)
    base, view = _sliced(ray.matrix)
    return base, RayleighInstance(matrix=view, x0=np.array(ray.x0), seed=3).matrix


def _rayleigh_x0_from_view():
    ray = rayleigh_instance(4, seed=3)
    base, view = _sliced(ray.x0)
    inst = RayleighInstance(matrix=np.array(ray.matrix), x0=view, seed=3)
    assert inst.initial_point().ambient is inst.x0
    return base, inst.x0


def _offdiag_x0_from_view():
    off = offdiag_instance(5, 3, 2, seed=3)
    base, view = _sliced(off.x0)
    return base, OffDiagonalInstance(matrices=off.matrices, x0=view, seed=3).x0


@pytest.mark.parametrize("build", [
    _point_from_view, _sphere_point_from_view, _tangent_from_view,
    _rayleigh_matrix_from_view, _rayleigh_x0_from_view, _offdiag_x0_from_view,
])
def test_view_of_writable_base_is_copied(build):
    # freezing a view would leave its base writable; the checked data are a copy
    base, kept = build()
    before = kept.copy()
    base[(0,) * base.ndim] += 5.0
    assert np.array_equal(kept, before)
    assert not kept.flags.writeable


class TestInner:
    def test_zero_vector(self):
        x = sphere_point(1.0, 0.0)
        assert inner(x, np.zeros(2), np.array([0.0, 3.0])) == 0.0

    def test_unit_vector(self):
        x = sphere_point(1.0, 0.0)
        u = np.array([0.0, 1.0])
        assert inner(x, u, u) == 1.0
        assert norm(u) == 1.0

    def test_direct_dot_product(self):
        x = sphere_point(1.0, 0.0)
        assert inner(x, np.array([0.0, 1.0]), np.array([0.0, 2.0])) == 2.0

    def test_arrays_are_read_as_tangents_at_x(self):
        # x only names the point: the induced metric is the ambient product at every
        # point, so no base is checked and another point gives the same bits
        rng = SplitMix64(7)
        for manifold in MANIFOLDS:
            x, y = random_point(manifold, rng), random_point(manifold, rng)
            u, v = random_tangent(x, rng), random_tangent(x, rng)
            want = float(np.vdot(u, v))
            assert inner(x, u, v).hex() == want.hex()
            assert inner(y, u, v).hex() == want.hex()

    def test_symmetric_bilinear(self):
        rng = SplitMix64(5)
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            u = random_tangent(x, rng)
            v = random_tangent(x, rng)
            w = random_tangent(x, rng)
            assert inner(x, u, v) == pytest.approx(inner(x, v, u), rel=1e-14)
            lhs = inner(x, u + 2.0 * v, w)
            rhs = inner(x, u, w) + 2.0 * inner(x, v, w)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestRetract:
    def test_zero_displacement_is_exact(self):
        rng = SplitMix64(11)
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            assert retract(x, np.zeros(manifold.ambient_shape)) is x

    def test_hand_normalization(self):
        x = sphere_point(1.0, 0.0)
        y = retract(x, np.array([0.0, 1.0]))
        assert np.allclose(y.ambient, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)

    def test_outputs_satisfy_point_invariants(self):
        rng = SplitMix64(13)
        for manifold in MANIFOLDS:
            for _ in range(20):
                x = random_point(manifold, rng)
                eta = random_tangent(x, rng)
                y = retract(x, eta)
                assert manifold.point_defect(y.ambient) <= 1e-12

    def test_singular_retraction_raises(self):
        x = sphere_point(1.0, 0.0)
        with pytest.raises(SingularRetractionError):  # -x is not a tangent; exercises the guard
            retract(x, -x.ambient)

    def test_directional_derivative_along_retraction(self):
        # d/dt f(R_x(t*eta)) at t=0 equals <grad f, eta> since DR_x(0) = id
        from riemqn import rayleigh_instance

        inst = rayleigh_instance(7, seed=3)
        rng = SplitMix64(17)
        x = random_point(inst.manifold, rng)
        g = inst.grad(x)
        for _ in range(5):
            eta = random_tangent(x, rng, unit=True)
            want = inner(x, g, eta)
            t = 1e-6
            got = (inst.cost(retract(x, t * eta))
                   - inst.cost(retract(x, (-t) * eta))) / (2 * t)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


class TestProjectTangent:
    def test_projection_formula(self):
        x = sphere_point(1.0, 0.0)
        t = project_tangent(x, np.array([3.0, 4.0]))
        assert np.allclose(t, [0.0, 4.0], atol=1e-15)

    def test_normal_direction_killed(self):
        x = sphere_point(1.0, 0.0)
        t = project_tangent(x, x.ambient.copy())
        assert norm(t) <= 1e-15

    def test_idempotent(self):
        rng = SplitMix64(23)
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            v = rng.normal(manifold.ambient_shape)
            once = project_tangent(x, v)
            twice = project_tangent(x, once)
            assert np.max(np.abs(once - twice)) <= 1e-12

    def test_already_tangent_unchanged(self):
        rng = SplitMix64(29)
        x = random_point(Oblique(4, 2), rng)
        t = random_tangent(x, rng)
        again = project_tangent(x, t)
        assert np.max(np.abs(again - t)) <= 1e-14

    def test_outputs_are_tangent(self):
        rng = SplitMix64(31)
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            t = project_tangent(x, rng.normal(manifold.ambient_shape))
            assert tangency_defect(x, t) <= 1e-10 * max(1.0, norm(t))


def _step_data(manifold, seed, alpha):
    rng = SplitMix64(seed)
    x = random_point(manifold, rng)
    eta = random_tangent(x, rng)
    g = random_tangent(x, rng)
    return x, eta, g, retract(x, alpha * eta)


def _dr_closed_form(x, step, v):
    # (v - u <u, v>) / |y| column by column, with y = x + step and u = y / |y|
    y = x + step
    ny = np.sqrt(np.sum(y * y, axis=0))
    u = y / ny
    return (v - u * np.sum(u * v, axis=0)) / ny


def _max_abs(a):
    return float(np.max(np.abs(a)))


manifolds_st = st.one_of(
    st.builds(Sphere, st.integers(2, 8)),
    st.builds(Oblique, st.integers(2, 6), st.integers(1, 4)),
)


class TestRetractAlpha:
    @settings(max_examples=80, deadline=None)
    @given(
        manifold=manifolds_st,
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-330.0, 12.0),
        zero=st.booleans(),
    )
    def test_alpha_scales_the_step(self, manifold, seed, log_alpha, zero):
        # retract(x, eta, alpha) is bitwise retract(x, alpha * eta); a step
        # that is or underflows to zero returns x itself
        alpha = 10.0**log_alpha
        rng = SplitMix64(seed)
        x = random_point(manifold, rng)
        eta = np.zeros(manifold.ambient_shape) if zero else random_tangent(x, rng)
        got = retract(x, eta, alpha)
        want = retract(x, alpha * eta)
        assert got.ambient.tobytes() == want.ambient.tobytes()
        assert (got is x) == (want is x)
        if zero or alpha == 0.0:
            assert got is x



class TestFastNorms:
    """The norm helpers compute exactly what ``np.linalg.norm`` computes."""

    @settings(max_examples=80, deadline=None)
    @given(
        manifold=manifolds_st,
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-300.0, 300.0),
        fortran=st.booleans(),
    )
    def test_bitwise_equal_to_numpy(self, manifold, seed, log_scale, fortran):
        a = SplitMix64(seed).normal(manifold.ambient_shape) * 10.0**log_scale
        if fortran:
            a = np.asfortranarray(a)
        with np.errstate(over="ignore", under="ignore"):
            assert _vector_norm(a).hex() == float(np.linalg.norm(a)).hex()
            if a.ndim == 2:
                assert _column_norms(a).tobytes() == np.linalg.norm(a, axis=0).tobytes()
                t = a.T  # a non-contiguous layout
                assert _vector_norm(t).hex() == float(np.linalg.norm(t)).hex()
                assert _column_norms(t).tobytes() == np.linalg.norm(t, axis=0).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        manifold=manifolds_st,
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.sampled_from([-300.0, 300.0]) | st.floats(-300.0, 300.0),
        order=st.sampled_from(LAYOUTS),
    )
    def test_method_call_forms_bitwise(self, manifold, seed, log_scale, order):
        # _dot, inner and norm call the arrays' own dot; each gives bitwise what the
        # dispatcher form gives on the arrays as they are laid out
        rng = SplitMix64(seed)
        x = random_point(manifold, rng)
        scale = 10.0**log_scale
        a = layout(rng.normal(manifold.ambient_shape) * scale, order)
        b = layout(rng.normal(manifold.ambient_shape) * scale, order)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            ref = float(np.vdot(a, b)).hex()
            assert _dot(a, b).hex() == ref
            assert inner(x, a, b).hex() == ref
            assert _dot(a, a).hex() == float(np.vdot(a, a)).hex()
            for t in (a, b):
                ref = float(np.linalg.norm(t))
                assert _vector_norm(t).hex() == ref.hex()
                if ref != 0.0:  # else norm rescales a tiny nonzero vector
                    assert norm(t).hex() == ref.hex()

    @pytest.mark.parametrize("manifold", [Sphere(3), Sphere(30), Sphere(100), Oblique(6, 4)],
                             ids=repr)
    def test_dot_of_views_is_vdot(self, manifold):
        # arrays from outside the package may be views, strided or reversed, which np.vdot
        # sums through their strides; dotted as they are, or as contiguous copies, 1-D
        # reversed and 2-D strided views differed from np.vdot in the last bits
        rng = SplitMix64(29)
        x = random_point(manifold, rng)
        for _ in range(10):
            a, b = random_tangent(x, rng), random_tangent(x, rng)
            for oa, ob in itertools.product(LAYOUTS, repeat=2):
                u, v = layout(a, oa), layout(b, ob)
                ref = float(np.vdot(u, v)).hex()
                assert _dot(u, v).hex() == ref, (oa, ob)
                assert inner(x, u, v).hex() == ref, (oa, ob)

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=repr)
    def test_norm_of_a_tiny_tangent_is_positive(self, manifold):
        x = random_point(manifold, SplitMix64(3))
        t = random_tangent(x, SplitMix64(4))
        tiny = t * 1e-300
        assert float(np.linalg.norm(tiny)) == 0.0
        assert norm(tiny) == pytest.approx(norm(t) * 1e-300, rel=1e-12)
        assert norm(np.zeros(manifold.ambient_shape)) == 0.0


# The oblique maps written with the np.sum / np.max / np.any wrappers: the
# reference for the ufunc reductions that Oblique calls.  The sphere maps below
# them use np.dot and np.linalg.norm, since np.sum rounds differently from a dot.
def _ref_point_defect(a):
    return float(np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)))


def _ref_tangent_defect(x, t):
    return float(np.max(np.abs(np.sum(x * t, axis=0))))


def _ref_scale(a):
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise SingularRetractionError("zero column")
    return norms


def _ref_normalize(a):
    return a / _ref_scale(a)


def _ref_project(x, v):
    return v - x * np.sum(x * v, axis=0)


def _ref_transport_dr(x, step, vs):
    y = x + step
    norms = np.linalg.norm(y, axis=0)
    if np.any(norms == 0.0):
        raise SingularRetractionError("zero column")
    u = y / norms
    return [(v - u * np.sum(u * v, axis=0)) / norms for v in vs]


def _ref_overlap(w, v):
    d = np.sum(w * v, axis=0)
    if np.any(d <= 0.0):
        raise AntipodalPointsError("orthogonal or antipodal column")
    return d


def _ref_sphere_point_defect(a):
    return abs(float(np.linalg.norm(a)) - 1.0)


def _ref_sphere_tangent_defect(x, t):
    return abs(float(np.dot(x, t)))


def _ref_sphere_scale(a):
    nrm = float(np.linalg.norm(a))
    if nrm == 0.0:
        raise SingularRetractionError("zero vector")
    return nrm


def _ref_sphere_normalize(a):
    return a / _ref_sphere_scale(a)


def _ref_sphere_project(x, v):
    return v - np.dot(x, v) * x


def _ref_sphere_transport_dr(x, step, vs):
    y = x + step
    ny = _ref_sphere_scale(y)
    u = y / ny
    return [(v - u * np.dot(u, v)) / ny for v in vs]


def _ref_sphere_overlap(w, v):
    d = float(np.dot(w, v))
    if d <= 0.0:
        raise AntipodalPointsError("orthogonal or antipodal")
    return d


# ambient ndim -> map name -> reference
_REFS = {
    1: {"point_defect": _ref_sphere_point_defect, "tangent_defect": _ref_sphere_tangent_defect,
        "_scale": _ref_sphere_scale, "_normalize": _ref_sphere_normalize,
        "_project": _ref_sphere_project, "transport_dr": _ref_sphere_transport_dr,
        "_overlap": _ref_sphere_overlap},
    2: {"point_defect": _ref_point_defect, "tangent_defect": _ref_tangent_defect,
        "_scale": _ref_scale, "_normalize": _ref_normalize, "_project": _ref_project,
        "transport_dr": _ref_transport_dr, "_overlap": _ref_overlap},
}


def _ref_transport(kind, x, eta, alpha, g, x_new):
    # one scaled projection per image at u = x_new
    refs = _REFS[x.ndim]
    t_eta, t_g = refs["_project"](x_new, eta), refs["_project"](x_new, g)
    if kind is DR:
        scale = refs["_scale"](x + alpha * eta)
        t_eta, t_g = t_eta / scale, t_g / scale
    elif kind is INVRET:
        t_eta = t_eta / refs["_overlap"](x_new, x)
    return [t_eta, t_g]


def _dr_from_scale(m, x, step, vs):
    """The differentiated retraction as ``transport_direction`` forms it: the projection
    at the normalized ``x + step`` over the manifold's scale."""
    y = x + step
    scale = m._scale(y)
    return [m._project(y / scale, v) / scale for v in vs]


def _outcome(fn, *args):
    """The bytes of what ``fn`` returns, or the type of the map error it raises."""
    try:
        out = fn(*args)
    except (SingularRetractionError, AntipodalPointsError) as exc:
        return type(exc)
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return [o.tobytes() for o in out]


class TestUfuncReductions:
    """The manifold maps give bitwise what their wrapper forms give: np.sum/np.max/np.any
    on the oblique manifold, np.dot/np.linalg.norm on the sphere."""

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.one_of(st.tuples(st.integers(1, 6)),
                        st.tuples(st.integers(1, 6), st.integers(1, 4))),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-300.0, 300.0),
        order=st.sampled_from("CFT"),
        defect=st.sampled_from([None, "zero", "nan", "minus_x", "opposite"]),
    )
    def test_maps_match_the_wrapper_forms(self, shape, seed, log_scale, order, defect):
        m = Sphere(*shape) if len(shape) == 1 else Oblique(*shape)
        refs = _REFS[len(shape)]
        rng = SplitMix64(seed)
        scale = 10.0**log_scale
        x = layout(random_point(m, rng).ambient, order)
        a = layout(rng.normal(shape) * scale, order)
        v = layout(rng.normal(shape) * scale, order)
        col = (slice(None), seed % shape[1]) if len(shape) == 2 else slice(None)
        # one column of a (the whole vector on the sphere) made zero, NaN, -x (so
        # x + a has a zero column) or opposite to x (so <x, a> is negative there)
        if defect == "zero":
            a[col] = 0.0
        elif defect == "nan":
            a[col] = np.nan
        elif defect == "minus_x":
            a[col] = -x[col]
        elif defect == "opposite":
            a[col] = -scale * x[col]
        cases = [
            ("point_defect", (a,)),
            ("point_defect", (x,)),
            ("tangent_defect", (x, a)),
            ("_scale", (a,)),
            ("_normalize", (a,)),
            ("_project", (x, a)),
            ("_overlap", (x, a)),
            ("_overlap", (a, x)),
        ]
        with np.errstate(all="ignore"):
            for name, args in cases:
                assert _outcome(getattr(m, name), *args) == _outcome(refs[name], *args), name
            dr_args = (x, a, (v, a, x))
            assert _outcome(_dr_from_scale, m, *dr_args) == _outcome(refs["transport_dr"],
                                                                     *dr_args)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.one_of(st.tuples(st.integers(1, 6)),
                        st.tuples(st.integers(1, 6), st.integers(1, 4))),
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-12.0, 12.0),
        order=st.sampled_from("CFT"),
    )
    def test_transports_match_the_wrapper_forms(self, shape, seed, log_alpha, order):
        m = Sphere(*shape) if len(shape) == 1 else Oblique(*shape)
        rng = SplitMix64(seed)
        alpha = 10.0**log_alpha
        x = Point(m, layout(random_point(m, rng).ambient, order))
        eta = layout(random_tangent(x, rng), order)
        g = layout(random_tangent(x, rng), order)
        x_new = retract(x, eta, alpha)
        for kind in (DR, PROJ, INVRET):
            got = _outcome(transport_direction, kind, x, eta, alpha, g, x_new)
            want = _outcome(_ref_transport, kind, x.ambient, eta, alpha, g,
                            x_new.ambient)
            assert got == want, kind

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.sampled_from([-300.0, 300.0]) | st.floats(-300.0, 300.0),
        order=st.sampled_from(LAYOUTS),
    )
    def test_sphere_projection_and_rayleigh_cost_match_the_dispatchers(
            self, n, seed, log_scale, order):
        # Sphere._project and RayleighInstance.cost call the arrays' own dot, bitwise
        # what np.dot and @ give
        rng = SplitMix64(seed)
        scale = 10.0**log_scale
        m = Sphere(n)
        x = layout(random_point(m, rng).ambient, order)
        v = layout(rng.normal(n) * scale, order)
        a = rng.normal((n, n))
        a = layout((a + a.T) * scale, order)
        inst = RayleighInstance(matrix=a, x0=x, seed=seed)
        p = random_point(m, rng)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            assert m._project(x, v).tobytes() == (v - np.dot(x, v) * x).tobytes()
            for point in (inst.initial_point(), p):
                want = float(point.ambient @ (inst.matrix @ point.ambient))
                assert inst.cost(point).hex() == want.hex()

    @pytest.mark.parametrize("column", [[0.0, 0.0], [np.nan, 1.0], [np.nan, np.nan]])
    def test_degenerate_columns(self, column):
        # a zero column is singular; a NaN column is not caught by either form
        m = Oblique(2, 2)
        a = np.array([[1.0, column[0]], [0.0, column[1]]])
        x = np.eye(2)
        with np.errstate(all="ignore"):
            singular = _outcome(m._normalize, a) is SingularRetractionError
            assert singular == (column == [0.0, 0.0])
            assert _outcome(m._normalize, a) == _outcome(_ref_normalize, a)
            for v in (-x, x[:, ::-1]):
                assert _outcome(m._overlap, x, v) is AntipodalPointsError
            assert _outcome(_dr_from_scale, m, x, a - x, (a,)) == _outcome(
                _ref_transport_dr, x, a - x, (a,))
            for w, v in ((x, a), (a, x), (x, -x), (x, x[:, ::-1])):
                assert _outcome(m._overlap, w, v) == _outcome(_ref_overlap, w, v)

    @pytest.mark.parametrize("columns", [
        [[0.0, 0.0], [0.0, 1.0]],
        [[-0.0, -0.0], [0.0, 1.0]],
        [[-0.0, 0.0], [np.nan, 1.0]],
        [[0.0, 0.0], [np.nan, np.nan]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[0.6, 0.8], [0.0, 1.0]],
    ], ids=repr)
    def test_zero_column_decision(self, columns):
        # singular exactly when `0.0 in norms`: -0.0 is a zero, nan is not
        m = Oblique(2, 2)
        a = np.array(columns).T
        x = Point(m, np.eye(2))
        eta = a - x.ambient  # x + eta has the columns of a; tangency is not checked
        with np.errstate(all="ignore"):
            singular = 0.0 in np.linalg.norm(a, axis=0)
            assert (_outcome(m._normalize, a) is SingularRetractionError) == singular
            assert (_outcome(m._scale, x.ambient + eta)
                    is SingularRetractionError) == singular
            for call in (lambda: retract(x, eta, 1.0),
                         lambda: transport_direction(DR, x, eta, 1.0, eta, x)):
                try:
                    call()
                except SingularRetractionError:
                    assert singular
                except InvalidPointError:  # a nan or inf column reaches the Point check
                    assert not singular
                else:
                    assert not singular

    @pytest.mark.parametrize("norms", [
        [-0.0, 1.0], [0.0, -0.0], [np.nan, 1.0], [np.nan, -0.0], [np.inf, 0.5], [1.0, 1.0],
    ], ids=repr)
    def test_zero_norm_decision(self, norms, monkeypatch):
        # the decision itself, on norms the column sums could not produce (-0.0)
        m = Oblique(2, 2)
        x = Point(m, np.eye(2))
        eta = np.zeros((2, 2))
        norms = np.array(norms)
        monkeypatch.setattr(manifolds, "_column_norms", lambda arr: norms)
        with np.errstate(all="ignore"):
            for fn, args in ((m._scale, (np.eye(2),)), (m._normalize, (np.eye(2),)),
                             (transport_direction, (DR, x, eta, 1.0, eta, x))):
                assert (_outcome(fn, *args) is SingularRetractionError) == (0.0 in norms)


class TestTransport:
    @settings(max_examples=60, deadline=None)
    @given(
        manifold=manifolds_st,
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-6.0, 3.0),
    )
    def test_step_transport_properties(self, manifold, seed, log_alpha):
        alpha = 10.0**log_alpha
        x, eta, g, x_new = _step_data(manifold, seed, alpha)
        step = alpha * eta
        e = eta
        for kind in (DR, PROJ, INVRET):
            outs = transport_direction(kind, x, e, alpha, g, x_new)
            for out in outs:
                assert tangency_defect(x_new, out) <= 1e-10 * max(1.0, norm(out))
            t_eta, t_g = outs
            s = alpha * t_eta  # the step image, as the Broyden memory forms it
            if kind is INVRET:
                # the gradient falls back to projection
                want = transport_direction(PROJ, x, e, alpha, g, x_new)[1]
                assert np.array_equal(t_g, want)
                continue
            if kind is DR:
                for got, v in zip((t_eta, s, t_g), (e, step, g)):
                    want = _dr_closed_form(x.ambient, step, v)
                    assert _max_abs(got - want) <= 1e-12 * max(1.0, _max_abs(want))
            else:
                # both forms cancel to ~ eps * alpha |eta| once alpha |eta| exceeds |s|
                want = project_tangent(x_new, step)
                assert _max_abs(s - want) <= 1e-14 * max(1.0, alpha * norm(eta))
            # t_g is linear in g for the two vector transports
            h = random_tangent(x, SplitMix64(seed + 1))
            combo = 2.0 * g - 3.0 * h
            lhs = transport_direction(kind, x, e, alpha, combo, x_new)[1]
            rhs = (
                2.0 * transport_direction(kind, x, e, alpha, g, x_new)[1]
                - 3.0 * transport_direction(kind, x, e, alpha, h, x_new)[1]
            )
            assert _max_abs(lhs - rhs) <= 1e-12 * max(1.0, norm(combo))

    @settings(max_examples=30, deadline=None)
    @given(
        manifold=manifolds_st,
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-6.0, 3.0),
    )
    def test_zero_displacement_identity(self, manifold, seed, log_alpha):
        alpha = 10.0**log_alpha
        rng = SplitMix64(seed)
        x = random_point(manifold, rng)
        g = random_tangent(x, rng)
        zero = np.zeros(manifold.ambient_shape)
        x_new = retract(x, alpha * zero)
        assert x_new is x
        for kind in (DR, PROJ, INVRET):
            t_eta, t_g = transport_direction(kind, x, zero, alpha, g, x_new)
            assert norm(t_eta) <= 1e-12
            assert _max_abs(t_g - g) <= 1e-12 * max(1.0, norm(g))

    def test_differentiated_retraction_closed_form(self):
        x = sphere_point(1.0, 0.0)
        eta, g = np.array([0.0, 1.0]), np.array([0.0, 2.0])
        t_eta, t_g = transport_direction(DR, x, eta, 1.0, g, retract(x, eta))
        want = np.array([-0.5, 0.5]) / np.sqrt(2.0)
        assert np.allclose(t_eta, want, atol=1e-15)
        assert np.allclose(t_g, 2.0 * want, atol=1e-15)

    def test_differentiated_retraction_reads_the_retraction_scale(self, monkeypatch):
        # retract keeps |x + alpha eta| on the point it makes, and DR's weights read it:
        # one norm per trial, bitwise the weights recomputed for a point retract did not make
        calls = []
        for cls in (Sphere, Oblique):
            def counted(self, arr, real=cls._scale):
                calls.append(type(self))
                return real(self, arr)

            monkeypatch.setattr(cls, "_scale", counted)
        rng = SplitMix64(71)
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            eta = random_tangent(x, rng)
            g = random_tangent(x, rng)
            for alpha in (1e-300, 1e-9, 0.37, 1e3):
                del calls[:]
                x_new = retract(x, eta, alpha)
                outs = transport_direction(DR, x, eta, alpha, g, x_new)
                assert len(calls) == 1, (manifold, alpha)
                fresh = Point(manifold, x_new.ambient.copy())
                for got, want in zip(outs, transport_direction(DR, x, eta, alpha, g, fresh)):
                    assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        manifold=manifolds_st,
        seed=st.integers(0, 2**32 - 1),
        log_alpha=st.floats(-12.0, 3.0),
    )
    def test_inverse_retraction_matches_an_extended_precision_reference(
            self, manifold, seed, log_alpha):
        # T(eta) = P_u(eta) / <u, x> at u = R_x(alpha * eta), evaluated in np.longdouble
        # from the exact retraction.  The relative error stays near eps for every step;
        # past alpha |eta| = 1 it grows with alpha |eta|, since rounding x_new to float64
        # alone moves P_u(eta) (of size ~ 1 / alpha) by ~ eps |eta|
        alpha = 10.0**log_alpha
        x, eta, g, x_new = _step_data(manifold, seed, alpha)
        t_eta = transport_direction(INVRET, x, eta, alpha, g, x_new)[0]
        ld = np.longdouble
        xl, el = x.ambient.astype(ld), eta.astype(ld)
        y = xl + ld(alpha) * el
        u = y / np.sqrt(np.sum(y * y, axis=0))
        want = (el - u * np.sum(u * el, axis=0)) / np.sum(u * xl, axis=0)
        err = float(np.max(np.abs(t_eta - want)) / np.max(np.abs(want)))
        assert err <= 10.0 * np.finfo(float).eps * max(1.0, alpha * norm(eta))

    @pytest.mark.parametrize("kind", [DR, PROJ, INVRET], ids=lambda k: k.name)
    def test_two_projections_per_transport(self, kind, monkeypatch):
        # one projection of eta and one of g, and nothing is re-projected
        calls = []
        for cls in (Sphere, Oblique):
            def counted(self, x_arr, v_arr, real=cls._project):
                calls.append(type(self))
                return real(self, x_arr, v_arr)

            monkeypatch.setattr(cls, "_project", counted)
        for manifold in MANIFOLDS:
            x, eta, g, x_new = _step_data(manifold, 5, 0.3)
            del calls[:]
            transport_direction(kind, x, eta, 0.3, g, x_new)
            assert len(calls) == 2, manifold

    def test_contract_checks(self):
        x, eta, g, x_new = _step_data(Sphere(4), 47, 0.5)
        with pytest.raises(ContractViolationError):
            transport_direction(DR, x, eta, 0.0, g, x_new)

    @pytest.mark.parametrize("make", [lambda: rayleigh_instance(12, seed=3),
                                      lambda: offdiag_instance(4, 2, 2, seed=1)],
                             ids=["rayleigh", "offdiag"])
    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan, 0.0, -1.0],
                             ids=["inf", "minus-inf", "nan", "zero", "negative"])
    @pytest.mark.parametrize("kind", [DR, PROJ, INVRET], ids=lambda k: k.name)
    def test_step_checked_before_any_projection(self, kind, alpha, make, monkeypatch):
        # an x_new that retract did not make: with alpha = inf the differentiated
        # retraction's scale |x + inf * eta| would be inf, and both images 0
        inst = make()
        x = inst.initial_point()
        g = inst.grad(x)
        x_new = Point(inst.manifold, retract(x, -g, 0.5).ambient.copy())
        calls = []
        for cls in (Sphere, Oblique):
            def counted(self, x_arr, v_arr, real=cls._project):
                calls.append(type(self))
                return real(self, x_arr, v_arr)

            monkeypatch.setattr(cls, "_project", counted)
        with pytest.raises(ContractViolationError, match="is not positive and finite"):
            transport_direction(kind, x, -g, alpha, g, x_new)
        assert calls == []

    def test_inverse_retraction_roundtrip(self):
        # the step image s = alpha * T(eta) is -R_{x_new}^{-1}(x), so retracting -s from
        # x_new recovers x
        rng = SplitMix64(53)
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            eta = random_tangent(x, rng, unit=True)
            g = random_tangent(x, rng)
            x_new = retract(x, eta, 0.3)
            s = 0.3 * transport_direction(INVRET, x, eta, 0.3, g, x_new)[0]
            back = retract(x_new, -s)
            assert np.max(np.abs(back.ambient - x.ambient)) <= 1e-12

    def test_antipodal_inverse_retraction_raises(self):
        x = sphere_point(1.0, 0.0)
        eta = np.array([0.0, 1.0])
        with pytest.raises(AntipodalPointsError):
            transport_direction(INVRET, x, eta, 1.0, eta, sphere_point(-1.0, 0.0))

    # seeds at which projecting at x and at x / |x| round differently
    @pytest.mark.parametrize("manifold,seed", [(Sphere(6), 72), (Oblique(5, 3), 73)], ids=repr)
    def test_zero_step_differentiated_retraction(self, manifold, seed):
        # a step that underflows to zero retracts to x itself, so the map projects at x
        # (not at x / |x|) and divides by |x|, which is 1 up to rounding
        rng = SplitMix64(seed)
        x = random_point(manifold, rng)
        eta = random_tangent(x, rng) * 1e-300
        g = random_tangent(x, rng)
        alpha = 1e-30
        assert retract(x, eta, alpha) is x
        step = alpha * eta
        assert not np.count_nonzero(step)
        base, scale = x.ambient, manifold._scale(x.ambient)
        outs = transport_direction(DR, x, eta, alpha, g, x)
        wants = [manifold._project(base, v) / scale for v in (eta, g)]
        # the closed form projects at the normalized x + step instead
        normalized = [_dr_closed_form(base, step, v) for v in (eta, g)]
        for got, want, was in zip(outs, wants, normalized):
            assert got.tobytes() == want.tobytes()
            assert _max_abs(got - was) <= 1e-15 * max(1e-300, _max_abs(was))
        assert any(got.tobytes() != was.tobytes() for got, was in zip(outs, normalized))

    def test_consistency_orders_with_differentiated_retraction(self):
        # residual of the step image a * T(eta) against DR_x(a*eta)[a*eta] shrinks at
        # least quadratically in a for the projection and inverse-retraction maps
        rng = SplitMix64(61)
        alphas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            eta = random_tangent(x, rng, unit=True)
            g = random_tangent(x, rng)

            def step_image(kind, a):
                x_new = retract(x, a * eta)
                return a * transport_direction(kind, x, eta, a, g, x_new)[0]

            for kind in (PROJ, INVRET):
                residuals = np.array(
                    [norm(step_image(kind, float(a)) - step_image(DR, float(a))) for a in alphas]
                )
                assert np.all(residuals > 0.0)
                slope = np.polyfit(np.log(alphas), np.log(residuals), 1)[0]
                assert slope >= 1.8


class TestTransportNorm:
    # The Sato-Iwai condition |T(eta)| <= |eta|, which lets a CG step go without a
    # scaling factor.  With r = |x + alpha eta| (per column on the oblique manifold),
    # |T_dr(eta)| = |eta| / r^2, |T_proj(eta)| = |eta| / r and |T_invret(eta)| = |eta|.
    # Measured over 200,000 random draws of this test's kind: (|T(eta)| / |eta| - 1) / eps
    # is at most 3 for every map at every step, and for invret past unit steps at most
    # 2.6 times alpha |eta|, as <u, x> = 1 / r and P_u(eta) cancel to size 1 / r there.
    # The bound takes c = 12, four times the worst case of 3.  The draws scale eta by
    # 10^-100 to 10^100, as a scaled problem scales its directions, and take steps
    # alpha |eta| from 1e-16 to 1e12.
    C = 12.0

    @settings(max_examples=200, deadline=None)
    @given(
        manifold=st.one_of(st.builds(Sphere, st.integers(2, 30)),
                           st.builds(Oblique, st.integers(2, 10), st.integers(1, 5))),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.integers(-100, 100),
        log_step=st.floats(-16.0, 12.0),
    )
    def test_transported_direction_is_no_longer(self, manifold, seed, log_scale, log_step):
        rng = SplitMix64(seed)
        x = random_point(manifold, rng)
        # projected twice: one projection of a draw nearly parallel to x leaves a normal
        # part of relative size eps |v| / |P v|, which invret's 1 / <u, x> amplifies
        eta = project_tangent(x, random_tangent(x, rng)) * 10.0**log_scale
        g = random_tangent(x, rng)
        eta_norm = norm(eta)
        alpha = 10.0**log_step / eta_norm
        x_new = retract(x, eta, alpha)
        eps = np.finfo(float).eps
        for kind in TransportKind:
            t_eta = transport_direction(kind, x, eta, alpha, g, x_new)[0]
            grow = max(1.0, alpha * eta_norm) if kind is INVRET else 1.0
            assert norm(t_eta) <= eta_norm * (1.0 + self.C * eps * grow), kind


class TestTangentAlgebra:
    def test_base_mismatch_in_arithmetic(self):
        x = sphere_point(1.0, 0.0)
        y = sphere_point(0.0, 1.0)
        u = Tangent(x, np.array([0.0, 1.0]))
        v = Tangent(y, np.array([1.0, 0.0]))
        with pytest.raises(ContractViolationError):
            _ = u + v

    def test_scalar_operations(self):
        x = sphere_point(1.0, 0.0)
        u = Tangent(x, np.array([0.0, 2.0]))
        assert np.array_equal((2 * u).ambient, [0.0, 4.0])
        assert np.array_equal((u / 2).ambient, [0.0, 1.0])
        assert np.array_equal((-u).ambient, [0.0, -2.0])
