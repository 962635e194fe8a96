import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemqn import (
    AntipodalPointsError,
    ContractViolationError,
    DegenerateTransportError,
    InvalidPointError,
    Oblique,
    Point,
    SingularRetractionError,
    Sphere,
    SplitMix64,
    Tangent,
    TransportKind,
    inner,
    inverse_retraction,
    norm,
    project_tangent,
    random_point,
    random_tangent,
    retract,
    scaling_sigma,
    tangency_defect,
    transport_direction,
)

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


class TestInner:
    def test_zero_vector(self):
        x = sphere_point(1.0, 0.0)
        zero = Tangent(x, np.zeros(2))
        other = Tangent(x, np.array([0.0, 3.0]))
        assert inner(x, zero, other) == 0.0

    def test_unit_vector(self):
        x = sphere_point(1.0, 0.0)
        u = Tangent(x, np.array([0.0, 1.0]))
        assert inner(x, u, u) == 1.0
        assert norm(u) == 1.0

    def test_direct_dot_product(self):
        x = sphere_point(1.0, 0.0)
        u = Tangent(x, np.array([0.0, 1.0]))
        v = Tangent(x, np.array([0.0, 2.0]))
        assert inner(x, u, v) == 2.0

    def test_base_mismatch_raises(self):
        x = sphere_point(1.0, 0.0)
        y = sphere_point(0.0, 1.0)
        u = Tangent(x, np.array([0.0, 1.0]))
        v = Tangent(y, np.array([1.0, 0.0]))
        with pytest.raises(ContractViolationError):
            inner(x, u, v)

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
            zero = Tangent(x, np.zeros(manifold.ambient_shape))
            assert retract(x, zero) is x

    def test_hand_normalization(self):
        x = sphere_point(1.0, 0.0)
        eta = Tangent(x, np.array([0.0, 1.0]))
        y = retract(x, eta)
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
        minus_x = Tangent(x, -x.ambient)  # not a tangent; exercises the guard
        with pytest.raises(SingularRetractionError):
            retract(x, minus_x)

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
            got = (inst.cost(retract(x, t * eta)) - inst.cost(retract(x, (-t) * eta))) / (2 * t)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


class TestProjectTangent:
    def test_projection_formula(self):
        x = sphere_point(1.0, 0.0)
        t = project_tangent(x, np.array([3.0, 4.0]))
        assert np.allclose(t.ambient, [0.0, 4.0], atol=1e-15)

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
            twice = project_tangent(x, once.ambient)
            assert np.max(np.abs(once.ambient - twice.ambient)) <= 1e-12

    def test_already_tangent_unchanged(self):
        rng = SplitMix64(29)
        x = random_point(Oblique(4, 2), rng)
        t = random_tangent(x, rng)
        again = project_tangent(x, t.ambient)
        assert np.max(np.abs(again.ambient - t.ambient)) <= 1e-14

    def test_outputs_are_tangent(self):
        rng = SplitMix64(31)
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            t = project_tangent(x, rng.normal(manifold.ambient_shape))
            assert tangency_defect(t) <= 1e-10 * max(1.0, norm(t))


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
        step = alpha * eta.ambient
        for kind in (DR, PROJ, INVRET):
            outs = transport_direction(kind, x, eta, alpha, g, x_new)
            for out in outs:
                assert out.point is x_new
                assert tangency_defect(out) <= 1e-10 * max(1.0, norm(out))
            t_eta, s, t_g = outs
            if kind is INVRET:
                assert _max_abs(alpha * t_eta.ambient - s.ambient) <= 1e-14 * max(1.0, norm(s))
                # the gradient falls back to projection
                want = transport_direction(PROJ, x, eta, alpha, g, x_new)[2]
                assert np.array_equal(t_g.ambient, want.ambient)
                continue
            if kind is DR:
                for got, v in zip(outs, (eta.ambient, step, g.ambient)):
                    want = _dr_closed_form(x.ambient, step, v)
                    assert _max_abs(got.ambient - want) <= 1e-12 * max(1.0, _max_abs(want))
            else:
                assert np.array_equal(s.ambient, project_tangent(x_new, step).ambient)
            # t_g is linear in g for the two vector transports
            h = random_tangent(x, SplitMix64(seed + 1))
            combo = 2.0 * g - 3.0 * h
            lhs = transport_direction(kind, x, eta, alpha, combo, x_new)[2]
            rhs = (
                2.0 * transport_direction(kind, x, eta, alpha, g, x_new)[2]
                - 3.0 * transport_direction(kind, x, eta, alpha, h, x_new)[2]
            )
            assert _max_abs(lhs.ambient - rhs.ambient) <= 1e-12 * max(1.0, norm(combo))

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
        zero = Tangent(x, np.zeros(manifold.ambient_shape))
        x_new = retract(x, alpha * zero)
        assert x_new is x
        for kind in (DR, PROJ, INVRET):
            t_eta, s, t_g = transport_direction(kind, x, zero, alpha, g, x_new)
            # invret divides s by alpha, so bound the step image alpha * t_eta
            assert alpha * norm(t_eta) <= 1e-12
            assert norm(s) <= 1e-12
            assert _max_abs(t_g.ambient - g.ambient) <= 1e-12 * max(1.0, norm(g))

    def test_differentiated_retraction_closed_form(self):
        x = sphere_point(1.0, 0.0)
        eta = Tangent(x, np.array([0.0, 1.0]))
        g = Tangent(x, np.array([0.0, 2.0]))
        t_eta, s, t_g = transport_direction(DR, x, eta, 1.0, g, retract(x, eta))
        want = np.array([-0.5, 0.5]) / np.sqrt(2.0)
        assert np.allclose(t_eta.ambient, want, atol=1e-15)
        assert np.allclose(s.ambient, want, atol=1e-15)
        assert np.allclose(t_g.ambient, 2.0 * want, atol=1e-15)

    def test_step_is_alpha_times_direction(self):
        rng = SplitMix64(67)
        x = random_point(Oblique(4, 2), rng)
        eta = random_tangent(x, rng)
        g = random_tangent(x, rng)
        alpha = 0.37
        x_new = retract(x, alpha * eta)
        for kind in (DR, PROJ, INVRET):
            t_eta, s, _ = transport_direction(kind, x, eta, alpha, g, x_new)
            assert np.allclose(s.ambient, alpha * t_eta.ambient, rtol=1e-12, atol=1e-14)

    def test_contract_checks(self):
        rng = SplitMix64(48)
        x, eta, g, x_new = _step_data(Sphere(4), 47, 0.5)
        other = random_point(Sphere(4), rng)
        with pytest.raises(ContractViolationError):
            transport_direction(DR, x, eta, 0.5, random_tangent(other, rng), x_new)
        with pytest.raises(ContractViolationError):
            transport_direction(DR, x, eta, 0.0, g, x_new)

    def test_inverse_retraction_roundtrip(self):
        # retracting the inverse retraction recovers the target point
        rng = SplitMix64(53)
        for manifold in MANIFOLDS:
            w = random_point(manifold, rng)
            v = retract(w, 0.3 * random_tangent(w, rng, unit=True))
            back = retract(w, inverse_retraction(w, v))
            assert np.max(np.abs(back.ambient - v.ambient)) <= 1e-12

    def test_antipodal_inverse_retraction_raises(self):
        w = sphere_point(1.0, 0.0)
        v = sphere_point(-1.0, 0.0)
        with pytest.raises(AntipodalPointsError):
            inverse_retraction(w, v)

    def test_consistency_orders_with_differentiated_retraction(self):
        # residual of the step image s against DR_x(a*eta)[a*eta] shrinks at
        # least quadratically in a for the projection and inverse-retraction maps
        rng = SplitMix64(61)
        alphas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        for manifold in MANIFOLDS:
            x = random_point(manifold, rng)
            eta = random_tangent(x, rng, unit=True)
            g = random_tangent(x, rng)

            def step_image(kind, a):
                x_new = retract(x, a * eta)
                return transport_direction(kind, x, eta, a, g, x_new)[1]

            for kind in (PROJ, INVRET):
                residuals = np.array(
                    [norm(step_image(kind, float(a)) - step_image(DR, float(a))) for a in alphas]
                )
                assert np.all(residuals > 0.0)
                slope = np.polyfit(np.log(alphas), np.log(residuals), 1)[0]
                assert slope >= 1.8


class TestScalingSigma:
    def _tangent_with_norm(self, value: float):
        x = sphere_point(1.0, 0.0, 0.0)
        return x, Tangent(x, np.array([0.0, value, 0.0]))

    def test_isometric_case(self):
        x, t = self._tangent_with_norm(1.0)
        assert scaling_sigma(x, 1.0, t) == 1.0

    def test_contraction(self):
        x, t = self._tangent_with_norm(2.0)
        assert scaling_sigma(x, 1.0, t) == 0.5

    def test_clamped_at_one(self):
        x, t = self._tangent_with_norm(1.0)
        assert scaling_sigma(x, 2.0, t) == 1.0

    def test_zero_transport_raises(self):
        x, t = self._tangent_with_norm(0.0)
        with pytest.raises(DegenerateTransportError):
            scaling_sigma(x, 1.0, t)

    def test_clamp_bounds_hold(self):
        rng = SplitMix64(71)
        x = random_point(Sphere(5), rng)
        for _ in range(10):
            t = random_tangent(x, rng)
            prev = abs(float(rng.normal(1)[0])) + 0.1
            sigma = scaling_sigma(x, prev, t)
            assert 0.0 < sigma <= 1.0
            assert sigma * norm(t) <= prev * (1.0 + 1e-15)


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
