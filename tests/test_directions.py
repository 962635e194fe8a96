import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemqn import (
    BroydenParams,
    ContractViolationError,
    DegenerateStepError,
    DegenerateZError,
    DirectionKind,
    Oblique,
    OutOfHypothesisError,
    PhiMode,
    Point,
    Sphere,
    SplitMix64,
    Tangent,
    ZMode,
    broyden_direction,
    cg_beta,
    cg_direction,
    compute_z,
    inner,
    norm,
    random_point,
    random_tangent,
    schedule_params,
    sufficient_descent_kappa,
)

from riemqn import directions
from riemqn.directions import _preconvex_phi

from _support import (
    LAYOUTS,
    curvature_healthy_pair,
    dense_memoryless_matrix,
    from_coords,
    layout,
    reference_cg_beta,
    tangent_basis,
    to_coords,
)


def flat_tangents(*rows):
    """The point e1 on S^2 and the ambient arrays of tangents there with prescribed
    coordinates in the e2/e3 plane."""
    x = Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
    return x, [np.array([0.0, float(a), float(b)]) for a, b in rows]


class TestComputeZ:
    def test_li_fukushima_pass_through(self):
        # raw curvature already above the floor leaves y untouched
        x, (s, y) = flat_tangents((1.0, 0.0), (0.7, 0.3))
        z = compute_z(ZMode.LI_FUKUSHIMA, s, y, 1e-6)
        assert z is y

    def test_li_fukushima_shift(self):
        x, (s, y) = flat_tangents((1.0, 0.0), (-1.0, 0.5))
        nu_hat = 1e-6
        z = compute_z(ZMode.LI_FUKUSHIMA, s, y, nu_hat)
        # nu = max(0, -sy/ss) + nu_hat = 1 + 1e-6, z = y + nu*s
        want = y + (1.0 + nu_hat) * s
        assert np.allclose(z, want, rtol=1e-15)
        assert inner(x, s, z) == pytest.approx(1e-6, rel=1e-9)

    def test_powell_pass_through(self):
        x, (s, y) = flat_tangents((1.0, 0.0), (0.7, 0.3))
        z = compute_z(ZMode.POWELL, s, y, 0.1)
        assert z is y

    def test_powell_blend(self):
        x, (s, y) = flat_tangents((1.0, 0.0), (0.0, 1.0))  # sy = 0, ss = 1
        z = compute_z(ZMode.POWELL, s, y, 0.1)
        want = 0.9 * y + 0.1 * s
        assert np.allclose(z, want, rtol=1e-15)
        assert inner(x, s, z) == pytest.approx(0.1, rel=1e-14)

    def test_zero_step_raises(self):
        x, (s, y) = flat_tangents((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(DegenerateStepError):
            compute_z(ZMode.LI_FUKUSHIMA, s, y, 1e-6)

    @pytest.mark.parametrize("mode,nu_hat", [(ZMode.LI_FUKUSHIMA, 1e-6), (ZMode.POWELL, 0.1)])
    def test_curvature_floor_random_sweep(self, mode, nu_hat):
        rng = SplitMix64(101)
        for manifold in (Sphere(8), Oblique(5, 3)):
            x = random_point(manifold, rng)
            for _ in range(200):
                s = random_tangent(x, rng)
                y = 10.0 * random_tangent(x, rng)
                z = compute_z(mode, s, y, nu_hat)
                ss = inner(x, s, s)
                assert inner(x, s, z) >= nu_hat * ss - 1e-14
                ratio = norm(z) / norm(s)
                assert np.isfinite(ratio)


class TestOneWrapperPerResult:
    """The array-level results equal the ``Tangent``-operator expressions bit for bit."""

    def test_against_operator_expressions(self):
        rng = SplitMix64(211)
        for manifold in (Sphere(8), Oblique(5, 3)):
            x = random_point(manifold, rng)
            for _ in range(50):
                g, s, y, t = (Tangent(x, random_tangent(x, rng)) for _ in range(4))
                ga, sa, ya, ta = (v.ambient for v in (g, s, y, t))
                ss, sy = inner(x, sa, sa), inner(x, sa, ya)
                for mode, nu_hat in ((ZMode.LI_FUKUSHIMA, 1e-6), (ZMode.POWELL, 0.1)):
                    z = compute_z(mode, sa, ya, nu_hat, ss, sy)
                    assert compute_z(mode, sa, ya, nu_hat).tobytes() == z.tobytes()
                    if sy >= nu_hat * ss:
                        assert z is ya
                        continue
                    if mode is ZMode.LI_FUKUSHIMA:
                        want = y + (max(0.0, -sy / ss) + nu_hat) * s
                    else:
                        nu = (1.0 - nu_hat) * ss / (ss - sy)
                        want = nu * y + (1.0 - nu) * s
                    if inner(x, sa, want.ambient) >= nu_hat * ss:  # the floor lift did nothing
                        assert z.tobytes() == want.ambient.tobytes()
                zt = Tangent(x, z)
                for phi_mode in PhiMode:
                    params = schedule_params(sa, z, phi_mode, 0.5, ss, inner(x, sa, z))
                    assert schedule_params(sa, z, phi_mode, 0.5) == params
                    p = params
                    sg, zg = inner(x, sa, ga), inner(x, z, ga)
                    coef_s = p.gamma * (p.phi * zg / p.sz
                                        - (1.0 / (p.gamma * p.tau) + p.phi * p.zz / p.sz) * (sg / p.sz))
                    coef_z = p.gamma * p.xi * (p.phi * sg / p.sz + (1.0 - p.phi) * zg / p.zz)
                    want = (-p.gamma) * g + coef_s * s + coef_z * zt
                    got = broyden_direction(ga, sa, z, params)
                    assert got.tobytes() == want.ambient.tobytes()
                want = -g + 0.7 * t
                assert cg_direction(ga, 0.7, ta).tobytes() == want.ambient.tobytes()


class TestScheduleParams:
    def test_hand_values_balanced(self):
        # sz = 2, zz = 4 -> gamma = max{1, 1/2} = 1, tau = min{1, 2} = 1
        x, (s, z) = flat_tangents((1.0, 0.0), (2.0, 0.0))
        p = schedule_params(s, z, PhiMode.BFGS, xi=0.5)
        assert p.gamma == 1.0
        assert p.tau == 1.0
        assert p.phi == 1.0
        assert p.xi == 0.5

    def test_hand_values_scaled(self):
        # s = (4, 2), z = (2, 0): sz = 8, zz = 4 -> gamma = 2, tau = 0.5
        x, (s, z) = flat_tangents((4.0, 2.0), (2.0, 0.0))
        p = schedule_params(s, z, PhiMode.BFGS, xi=0.0)
        assert p.gamma == 2.0
        assert p.tau == 0.5
        assert (p.ss, p.sz, p.zz) == (20.0, 8.0, 4.0)

    def test_bfgs_mode_phi_is_one(self):
        rng = SplitMix64(3)
        x = random_point(Sphere(5), rng)
        s = random_tangent(x, rng)
        z = compute_z(ZMode.LI_FUKUSHIMA, s, random_tangent(x, rng), 1e-6)
        assert schedule_params(s, z, PhiMode.BFGS, xi=1.0).phi == 1.0

    def test_schedule_bounds_random_sweep(self):
        rng = SplitMix64(7)
        x = random_point(Sphere(6), rng)
        for _ in range(300):
            s = random_tangent(x, rng)
            z = compute_z(ZMode.POWELL, s, 5.0 * random_tangent(x, rng), 0.1)
            for phi_mode in PhiMode:
                p = schedule_params(s, z, phi_mode, xi=0.8)
                assert p.gamma >= 1.0
                assert 0.0 < p.tau <= 1.0
                assert p.phi >= 0.0
                # gamma * tau telescopes to 1 under the max/min schedule
                assert p.gamma * p.tau == pytest.approx(1.0, rel=1e-12)

    def test_preconvex_parallel_guard(self):
        # s parallel to z makes mu = 1 exactly; guard falls back to phi = 1
        x, (s,) = flat_tangents((1.0, 0.5))
        z = 2.0 * s
        p = schedule_params(s, z, PhiMode.PRECONVEX, xi=0.1)
        assert p.phi == 1.0

    def test_preconvex_formula_value(self):
        x, (s, z) = flat_tangents((1.0, 0.0), (1.0, 1.0))
        # ss = 1, zz = 2, sz = 1 -> mu = 2, theta* = 1e-5,
        # phi = (1e-6 - 1) / (1e-6 * (1 - 2) - 1)
        want = (0.1 * 1e-5 - 1.0) / (0.1 * 1e-5 * (1.0 - 2.0) - 1.0)
        p = schedule_params(s, z, PhiMode.PRECONVEX, xi=0.0)
        assert p.phi == pytest.approx(want, rel=1e-14)
        assert 0.0 < p.phi < 1.0

    def test_preconvex_reciprocal_mode(self):
        x, (s, z) = flat_tangents((1.0, 0.0), (1.0, 1.0))
        # reciprocal reading: mu = 1/2, theta* = 2, phi = (0.2-1)/(0.1-1) = 8/9
        p = schedule_params(s, z, PhiMode.PRECONVEX_RECIPROCAL, xi=0.0)
        assert p.phi == pytest.approx((0.2 - 1.0) / (0.1 - 1.0), rel=1e-14)

    @pytest.mark.parametrize("mode", [PhiMode.PRECONVEX, PhiMode.PRECONVEX_RECIPROCAL])
    def test_preconvex_mu_when_sz_squared_underflows(self, mode):
        # sz = 1e-162, so sz * sz underflows to 0, which mu once divided by
        # (ZeroDivisionError); mu = (ss / sz) * (zz / sz) = 2, as for the unscaled pair
        s, z = np.array([1e-81, 0.0]), np.array([1e-81, 1e-81])
        p = schedule_params(s, z, mode, 1.0)
        assert p.sz * p.sz == 0.0
        unscaled = schedule_params(np.array([1.0, 0.0]), np.array([1.0, 1.0]), mode, 1.0)
        assert p.phi == unscaled.phi

    def test_nonpositive_curvature_rejected(self):
        x, (s, z) = flat_tangents((1.0, 0.0), (-1.0, 0.0))
        with pytest.raises(DegenerateZError):
            schedule_params(s, z, PhiMode.BFGS, xi=0.0)

    def test_zero_z_rejected(self):
        x, (s, z) = flat_tangents((1.0, 0.0), (0.0, 0.0))
        with pytest.raises(DegenerateZError):
            schedule_params(s, z, PhiMode.BFGS, xi=0.0)


class TestBroydenDirection:
    def test_orthogonal_collapse(self):
        # <s, g> = <z, g> = 0 leaves only the gradient term
        x, (g, s, z) = flat_tangents((0.0, 1.0), (1.0, 0.0), (2.0, 0.0))
        p = BroydenParams(gamma=1.5, tau=1.0, phi=1.0, xi=0.7, ss=1.0, sz=2.0, zz=4.0)
        eta = broyden_direction(g, s, z, p)
        assert np.allclose(eta, -1.5 * g, atol=1e-15)

    def test_flat_hand_case(self):
        # g = (1,1), s = (0,1), z = (0,2), unit parameters -> eta = (-1, -1/2)
        x, (g, s, z) = flat_tangents((1.0, 1.0), (0.0, 1.0), (0.0, 2.0))
        p = BroydenParams(gamma=1.0, tau=1.0, phi=1.0, xi=1.0, ss=1.0, sz=2.0, zz=4.0)
        eta = broyden_direction(g, s, z, p)
        assert np.allclose(eta, [0.0, -1.0, -0.5], atol=1e-15)
        assert inner(x, g, eta) == pytest.approx(-1.5, rel=1e-14)

    @pytest.mark.parametrize("phi_mode", list(PhiMode))
    def test_matches_dense_operator_with_full_xi(self, phi_mode):
        # xi = 1 reduces the closed form to -H[g] for the dense memoryless
        # operator assembled in explicit tangent coordinates
        rng = SplitMix64(2029)
        for manifold in (Sphere(5), Oblique(4, 2)):
            x = random_point(manifold, rng)
            basis = tangent_basis(x)
            for k in range(10):
                g = random_tangent(x, rng)
                s, y = curvature_healthy_pair(x, rng)
                mode = ZMode.LI_FUKUSHIMA if k % 2 == 0 else ZMode.POWELL
                z = compute_z(mode, s, y, 1e-6 if k % 2 == 0 else 0.1)
                params = schedule_params(s, z, phi_mode, xi=1.0)
                eta = broyden_direction(g, s, z, params)
                h = dense_memoryless_matrix(
                    to_coords(s, basis), to_coords(z, basis),
                    params.gamma, params.tau, params.phi,
                )
                want = from_coords(x, -(h @ to_coords(g, basis)), basis)
                assert norm(eta - want) <= 1e-10 * max(1.0, norm(want))

    def test_sufficient_descent_inside_hypotheses(self):
        rng = SplitMix64(404)
        x = random_point(Sphere(7), rng)
        kappa = sufficient_descent_kappa(1.0, 0.1, 1.0 + 1e-9)
        for _ in range(200):
            g = random_tangent(x, rng)
            s = random_tangent(x, rng)
            z = compute_z(ZMode.POWELL, s, 3.0 * random_tangent(x, rng), 0.1)
            params = schedule_params(s, z, PhiMode.BFGS, xi=0.1)
            eta = broyden_direction(g, s, z, params)
            gg = inner(x, g, g)
            assert inner(x, g, eta) <= -kappa * gg + 1e-12 * gg


class TestKappa:
    def test_hand_value(self):
        assert sufficient_descent_kappa(1.0, 0.1, 1.5) == pytest.approx(0.4375, rel=1e-14)

    def test_limit_value(self):
        assert sufficient_descent_kappa(1.0, 0.0, 1.0 + 1e-12) == pytest.approx(0.75, abs=1e-8)

    def test_out_of_hypothesis(self):
        with pytest.raises(OutOfHypothesisError):
            sufficient_descent_kappa(1.0, 1.0, 1.5)
        with pytest.raises(OutOfHypothesisError):
            sufficient_descent_kappa(1.0, 0.1, 2.0)
        with pytest.raises(OutOfHypothesisError):
            sufficient_descent_kappa(0.0, 0.1, 1.5)


def cg_args(g=(2.0, 0.0), t_g=(0.25, 0.5), g_dot_t_eta=1.0, g_prev_norm2=4.0,
            g_prev_dot_eta=-3.0):
    """cg_beta's arguments after the rule: g and T(g_prev) in the flat plane, then the
    scalars.  By default |g|^2 = 4, <g, T(g_prev)> = 0.5 and den = 4."""
    _, vecs = flat_tangents(g, t_g)
    return (*vecs, g_dot_t_eta, g_prev_norm2, g_prev_dot_eta)


CG_RULES = [k for k in DirectionKind if k is not DirectionKind.BROYDEN]


class TestCgBeta:
    def test_fr_equal_norms(self):
        assert cg_beta(DirectionKind.FR, *cg_args()) == 1.0

    def test_hz_reduces_to_hs_when_overlap_vanishes(self):
        args = cg_args(g_dot_t_eta=0.0)
        assert cg_beta(DirectionKind.HZ, *args) == cg_beta(DirectionKind.HS, *args)

    def test_dy_hand_evaluation(self):
        # flat data: g = (1, 2), T(eta_prev) = (3, 0), <g_prev, eta_prev> = -2: no factor
        # scales <g, T(eta_prev)>, so den = 3 - (-2) and beta = |g|^2 / den = 5 / 5
        x, (g, t_eta) = flat_tangents((1.0, 2.0), (3.0, 0.0))
        beta = cg_beta(DirectionKind.DY, g, t_eta, inner(x, g, t_eta), 4.0, -2.0)
        assert beta == 1.0

    def test_zero_denominator_signals_restart(self):
        args = cg_args(g_dot_t_eta=3.0, g_prev_dot_eta=3.0)
        for kind in (DirectionKind.DY, DirectionKind.HS, DirectionKind.HZ):
            assert cg_beta(kind, *args) is None
        for kind in (DirectionKind.FR, DirectionKind.PRP):
            assert cg_beta(kind, *cg_args(g_prev_norm2=0.0)) is None

    def test_hz_underflowing_denominator_square_signals_restart(self):
        # den ~ 1e-170 is nonzero, but den * den underflows to 0
        args = cg_args(g_dot_t_eta=5e-171, g_prev_dot_eta=-5e-171)
        assert 5e-171 - (-5e-171) != 0.0
        assert cg_beta(DirectionKind.HZ, *args) is None
        assert math.isfinite(cg_beta(DirectionKind.HS, *args))

    def test_hz_overflowing_denominator_square_signals_restart(self):
        # den ~ 1e200 is finite, but den * den overflows to inf, and with it
        # |y|^2 * <g, T(eta_prev)> (|y|^2 ~ 1e250): inf / inf would make beta nan
        args = cg_args(g=(1e100, 0.0), t_g=(0.0, 1e125), g_dot_t_eta=5e199,
                       g_prev_dot_eta=-5e199)
        assert math.isfinite(5e199 - (-5e199))
        assert cg_beta(DirectionKind.HZ, *args) is None
        assert math.isfinite(cg_beta(DirectionKind.HS, *args))

    def test_hz_formula(self):
        # y = g - T(g_prev) = (1.75, -0.5), |y|^2 = 3.3125
        den = 1.0 - (-3.0)
        want = (4.0 - 0.5) / den - 2.0 * 3.3125 * 1.0 / den**2
        assert cg_beta(DirectionKind.HZ, *cg_args()) == pytest.approx(want, rel=1e-14)

    def test_broyden_is_not_a_beta_rule(self):
        with pytest.raises(ContractViolationError):
            cg_beta(DirectionKind.BROYDEN, *cg_args())

    @pytest.mark.parametrize("kind,products", [
        (DirectionKind.FR, 1), (DirectionKind.DY, 1), (DirectionKind.PRP, 2),
        (DirectionKind.HS, 2), (DirectionKind.HZ, 3),
    ], ids=lambda v: getattr(v, "value", v))
    def test_takes_only_the_products_its_rule_reads(self, kind, products, monkeypatch):
        calls = []

        def counted(a, b, real=directions._dot):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(directions, "_dot", counted)
        cg_beta(kind, *cg_args())
        assert len(calls) == products

    @settings(max_examples=150, deadline=None)
    @given(
        manifold=st.sampled_from([Sphere(6), Oblique(5, 3)]),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.sampled_from([-50.0, 50.0]) | st.floats(-50.0, 50.0),
        order=st.sampled_from(LAYOUTS),
        kind=st.sampled_from(CG_RULES),
        near=st.booleans(),
    )
    def test_bitwise_equal_to_the_inner_reference(self, manifold, seed, log_scale, order, kind,
                                                   near):
        # the products a rule reads are the bits inner gives; T(g_prev) near g makes
        # |g - T(g_prev)|^2 and the PRP/HS numerator cancel
        rng = SplitMix64(seed)
        x = random_point(manifold, rng)
        scale = 10.0**log_scale
        ga = random_tangent(x, rng) * scale
        t_ga = random_tangent(x, rng) * scale
        if near:
            t_ga = ga + 1e-9 * t_ga
        g, t_g, t_eta, eta_prev = (layout(a, order) for a in (
            ga, t_ga, random_tangent(x, rng) * scale, random_tangent(x, rng) * scale))
        args = (inner(x, g, t_eta), inner(x, t_g, t_g), inner(x, t_g, eta_prev))
        got = cg_beta(kind, g, t_g, *args)
        want = reference_cg_beta(kind, x, g, t_g, *args)
        assert (None if got is None else got.hex()) == (None if want is None else want.hex())


class TestCgDirection:
    def test_zero_beta_is_steepest_descent(self):
        x, (g, t) = flat_tangents((1.0, 0.0), (0.0, 1.0))
        eta = cg_direction(g, 0.0, t)
        assert np.array_equal(eta, -g)

    def test_flat_arithmetic(self):
        # g = (1, 0), beta = 2, T(eta_prev) = (0, 1) -> (-1, 2)
        x, (g, t) = flat_tangents((1.0, 0.0), (0.0, 1.0))
        eta = cg_direction(g, 2.0, t)
        assert np.array_equal(eta, [0.0, -1.0, 2.0])


def _ref_schedule_params(x, s, z, phi_mode, xi):
    """``schedule_params`` on the arrays s and z at x, written with ``inner``."""
    ss, sz, zz = inner(x, s, s), inner(x, s, z), inner(x, z, z)
    phi = 1.0
    if phi_mode is not PhiMode.BFGS:
        mu = (ss * zz) / (sz * sz)
        phi = _preconvex_phi(mu if phi_mode is PhiMode.PRECONVEX else 1.0 / mu)
    return BroydenParams(max(1.0, sz / zz), min(1.0, zz / sz), phi, xi, ss, sz, zz)


def _ref_broyden_direction(x, g, s, z, p):
    """``broyden_direction`` on the arrays g, s and z at x, written with ``inner``."""
    sg, zg = inner(x, s, g), inner(x, z, g)
    coef_s = p.gamma * (p.phi * zg / p.sz - (1.0 / (p.gamma * p.tau) + p.phi * p.zz / p.sz)
                        * (sg / p.sz))
    coef_z = p.gamma * p.xi * (p.phi * sg / p.sz + (1.0 - p.phi) * zg / p.zz)
    return (-p.gamma) * g + coef_s * s + coef_z * z


class TestProductsAsInnerTakesThem:
    """schedule_params and broyden_direction take their products in their own frame,
    bit for bit as ``inner`` takes them."""

    @settings(max_examples=60, deadline=None)
    @given(
        manifold=st.sampled_from([Sphere(6), Oblique(5, 3)]),
        seed=st.integers(0, 2**32 - 1),
        # sz * sz, which the preconvex rule divides by, stays normal
        log_scale=st.sampled_from([-50.0, 50.0]) | st.floats(-50.0, 50.0),
        order=st.sampled_from("CFT"),
        phi_mode=st.sampled_from(list(PhiMode)),
        given_sums=st.booleans(),
    )
    def test_bitwise_equal_to_the_inner_reference(self, manifold, seed, log_scale, order,
                                                   phi_mode, given_sums):
        rng = SplitMix64(seed)
        x = random_point(manifold, rng)
        scale = 10.0**log_scale
        g, s, y = (layout(random_tangent(x, rng) * scale, order) for _ in range(3))
        z = compute_z(ZMode.LI_FUKUSHIMA, s, y, 1e-6)
        want = _ref_schedule_params(x, s, z, phi_mode, 0.8)
        sums = (want.ss, want.sz) if given_sums else ()
        params = schedule_params(s, z, phi_mode, 0.8, *sums)
        assert [v.hex() for v in params] == [v.hex() for v in want]
        eta = broyden_direction(g, s, z, params)
        assert eta.tobytes() == _ref_broyden_direction(x, g, s, z, want).tobytes()
