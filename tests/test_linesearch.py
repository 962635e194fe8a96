import numpy as np
import pytest

from riemqn import (
    ConfigError,
    ContractViolationError,
    LineSearchConfig,
    LineSearchFailedError,
    Point,
    SplitMix64,
    Sphere,
    Tangent,
    TransportKind,
    inner,
    random_point,
    random_tangent,
    rayleigh_instance,
    retract,
    search_step,
    transport_direction,
    wolfe_check,
)

DR = TransportKind.DIFFERENTIATED_RETRACTION


def diag_rayleigh(*diag):
    inst = rayleigh_instance(len(diag), seed=1)
    object.__setattr__(inst, "matrix", np.diag(np.array(diag, dtype=float)))
    return inst


class TestConfig:
    def test_constant_ordering_enforced(self):
        with pytest.raises(ConfigError):
            LineSearchConfig(c1=0.5, c2=0.1)
        with pytest.raises(ConfigError):
            LineSearchConfig(c1=0.0)
        with pytest.raises(ConfigError):
            LineSearchConfig(c2=1.0)
        with pytest.raises(ConfigError):
            LineSearchConfig(max_evals=2)
        LineSearchConfig()  # defaults valid


class TestWolfeCheck:
    def setup_method(self):
        self.inst = diag_rayleigh(1.0, 2.0)
        self.x = Point(Sphere(2), np.array([1.0, 1.0]) / np.sqrt(2.0))
        self.g = self.inst.grad(self.x)
        self.cfg = LineSearchConfig(c1=1e-4, c2=0.9)

    def test_tiny_alpha_limits(self):
        # Armijo holds by Taylor expansion, curvature fails for nonstationary f
        eta = -self.g
        armijo_ok, curvature_ok = wolfe_check(self.inst, self.x, eta, 1e-12, self.cfg, DR)
        assert armijo_ok is True
        assert curvature_ok is False

    def test_predicates_match_direct_evaluation(self):
        eta = -self.g
        alpha = 0.1
        got = wolfe_check(self.inst, self.x, eta, alpha, self.cfg, DR)
        f0 = self.inst.cost(self.x)
        d0 = inner(self.x, self.g, eta)
        x_new = retract(self.x, alpha * eta)
        f_new = self.inst.cost(x_new)
        t_eta, _, _ = transport_direction(DR, self.x, eta, alpha, self.g, x_new)
        dphi = inner(x_new, self.inst.grad(x_new), t_eta)
        want = (f_new <= f0 + self.cfg.c1 * alpha * d0, dphi >= self.cfg.c2 * d0)
        assert got == want

    def test_nondescent_direction_rejected(self):
        with pytest.raises(ContractViolationError):
            wolfe_check(self.inst, self.x, self.g, 0.5, self.cfg, DR)

    def test_stationary_point_rejected(self):
        e1 = Point(Sphere(2), np.array([1.0, 0.0]))
        zero_dir = Tangent(e1, np.array([0.0, 0.5]))
        with pytest.raises(ContractViolationError):
            wolfe_check(self.inst, e1, zero_dir, 0.5, self.cfg, DR)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ContractViolationError):
            wolfe_check(self.inst, self.x, -self.g, 0.0, self.cfg, DR)


class TestLineSearch:
    def setup_method(self):
        self.cfg = LineSearchConfig()

    def test_returned_alpha_passes_wolfe_check(self):
        inst = rayleigh_instance(20, seed=6)
        rng = SplitMix64(2)
        for kind in TransportKind:
            x = random_point(inst.manifold, rng)
            eta = -inst.grad(x)
            alpha = search_step(inst, x, eta, self.cfg, kind).alpha
            assert wolfe_check(inst, x, eta, alpha, self.cfg, kind) == (True, True)

    def test_wolfe_interval_exists_and_is_found(self):
        # dense scan certifies an acceptance window on a strictly convex section
        inst = diag_rayleigh(1.0, 2.0)
        x = Point(Sphere(2), np.array([1.0, 1.0]) / np.sqrt(2.0))
        eta = -inst.grad(x)
        cfg = LineSearchConfig(max_evals=50)
        grid = np.linspace(1e-3, 2.0, 300)
        window = [a for a in grid if wolfe_check(inst, x, eta, float(a), cfg, DR) == (True, True)]
        assert window, "scan found no Wolfe step; test problem is misconfigured"
        alpha = search_step(inst, x, eta, cfg, DR).alpha
        assert wolfe_check(inst, x, eta, alpha, cfg, DR) == (True, True)

    def test_rescaled_direction_still_satisfies_wolfe(self):
        inst = diag_rayleigh(1.0, 3.0)
        x = Point(Sphere(2), np.array([1.0, 1.0]) / np.sqrt(2.0))
        eta = -inst.grad(x)
        a1 = search_step(inst, x, eta, self.cfg, DR).alpha
        a2 = search_step(inst, x, 2.0 * eta, self.cfg, DR).alpha
        assert wolfe_check(inst, x, eta, a1, self.cfg, DR) == (True, True)
        assert wolfe_check(inst, x, 2.0 * eta, a2, self.cfg, DR) == (True, True)

    def test_monotone_decrease(self):
        inst = rayleigh_instance(15, seed=9)
        rng = SplitMix64(4)
        x = random_point(inst.manifold, rng)
        f0 = inst.cost(x)
        g = inst.grad(x)
        eta = -g
        ev = search_step(inst, x, eta, self.cfg, DR)
        assert ev.f_new <= f0 + self.cfg.c1 * ev.alpha * inner(x, g, eta)
        assert ev.f_new < f0

    def test_budget_exhaustion_raises(self):
        inst = rayleigh_instance(15, seed=10)
        rng = SplitMix64(5)
        x = random_point(inst.manifold, rng)
        # absurdly long direction forces many shrink steps; tiny budget fails
        eta = -1e18 * inst.grad(x)
        with pytest.raises(LineSearchFailedError):
            search_step(inst, x, eta, LineSearchConfig(max_evals=5), DR)

    def test_search_step_fields_consistent(self):
        inst = rayleigh_instance(10, seed=12)
        rng = SplitMix64(6)
        x = random_point(inst.manifold, rng)
        eta = -inst.grad(x)
        ev = search_step(inst, x, eta, self.cfg, DR)
        assert ev.f_new == inst.cost(ev.x_new)
        assert np.array_equal(ev.g_new.ambient, inst.grad(ev.x_new).ambient)
        g = inst.grad(x)
        want = transport_direction(DR, x, eta, ev.alpha, g, ev.x_new)
        for got, w in zip((ev.t_eta, ev.s, ev.t_g), want):
            assert np.array_equal(got.ambient, w.ambient)
        assert ev.dphi == inner(ev.x_new, ev.g_new, ev.t_eta)

    def test_nondescent_rejected(self):
        inst = rayleigh_instance(10, seed=12)
        x = random_point(inst.manifold, SplitMix64(6))
        with pytest.raises(ContractViolationError):
            search_step(inst, x, inst.grad(x), self.cfg, DR)

    def test_inverse_retraction_transport_accepted_steps(self):
        inst = rayleigh_instance(12, seed=19)
        rng = SplitMix64(8)
        kind = TransportKind.INVERSE_RETRACTION
        x = random_point(inst.manifold, rng)
        eta = -inst.grad(x)
        ev = search_step(inst, x, eta, self.cfg, kind)
        assert wolfe_check(inst, x, eta, ev.alpha, self.cfg, kind) == (True, True)
