import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riemqn import (
    ConfigError,
    ContractViolationError,
    LineSearchConfig,
    LineSearchFailedError,
    OffDiagonalInstance,
    Point,
    RayleighInstance,
    SolverConfig,
    SplitMix64,
    Sphere,
    TransportKind,
    config_from_id,
    inner,
    offdiag_instance,
    random_point,
    random_tangent,
    rayleigh_instance,
    retract,
    search_step,
    solve,
    transport_direction,
    wolfe_check,
)
from riemqn import linesearch
from riemqn.linesearch import FLOOR_BAND, armijo

from _support import PROPERTY_IDS, search

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
        t_eta, _ = transport_direction(DR, self.x, eta, alpha, self.g, x_new)
        dphi = inner(x_new, self.inst.grad(x_new), t_eta)
        want = (f_new <= f0 + self.cfg.c1 * alpha * d0, dphi >= self.cfg.c2 * d0)
        assert got == want

    def test_nondescent_direction_rejected(self):
        with pytest.raises(ContractViolationError):
            wolfe_check(self.inst, self.x, self.g, 0.5, self.cfg, DR)

    def test_stationary_point_rejected(self):
        e1 = Point(Sphere(2), np.array([1.0, 0.0]))
        with pytest.raises(ContractViolationError):
            wolfe_check(self.inst, e1, np.array([0.0, 0.5]), 0.5, self.cfg, DR)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ContractViolationError):
            wolfe_check(self.inst, self.x, -self.g, 0.0, self.cfg, DR)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, 0.0, -0.5],
                             ids=["inf", "minus-inf", "nan", "zero", "negative"])
    def test_step_checked_before_any_evaluation(self, monkeypatch, alpha):
        # as search_step's first trial: an infinite step once evaluated at x, then
        # raised InvalidPointError from retract with a numpy RuntimeWarning
        inst = rayleigh_instance(12, seed=3)
        x = inst.initial_point()
        eta = -inst.grad(x)
        evaluations = []
        for name in ("cost", "grad"):
            real = getattr(type(inst), name)
            monkeypatch.setattr(type(inst), name,
                                lambda self, p, _real=real: evaluations.append(p) or _real(self, p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="is not positive and finite"):
                wolfe_check(inst, x, eta, alpha, self.cfg, DR)
        assert evaluations == []


class TestLineSearch:
    def setup_method(self):
        self.cfg = LineSearchConfig()

    def test_returned_alpha_passes_wolfe_check(self):
        inst = rayleigh_instance(20, seed=6)
        rng = SplitMix64(2)
        for kind in TransportKind:
            x = random_point(inst.manifold, rng)
            eta = -inst.grad(x)
            alpha = search(inst, x, eta, self.cfg, kind).alpha
            assert wolfe_check(inst, x, eta, alpha, self.cfg, kind) == (True, True)

    # Sized over the 51 ids, scaled and unscaled starts, Rayleigh n 3-30 and offdiag
    # (2-6) x (1-3) x (1-2), c in 10^[-100, 100] (max_iters 60, 20,000 runs): 0 of
    # 548,338 replayed steps flipped.  A flip stays possible where Armijo's cost change
    # lies within rounding of its bound: at c = 1, n = 3 and n = 4, seeds 0-299, one
    # step in 30,600 runs flipped (rayleigh_instance(3, 215), hs_proj, tol 1e-10,
    # alpha_max inf, step 41), so the examples are fixed.  Sphere(2) is left out: its
    # tangent space is a line, where an HS direction is zero in exact arithmetic and a
    # Broyden xi = 1 one can cancel alike, so the computed direction is rounding noise
    # normal to the circle, whose slope has no sign to replay (CHANGES.md, FOUND).
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        dims=st.one_of(st.tuples(st.integers(3, 30)),
                       st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(1, 2))),
        seed=st.integers(0, 2**32 - 1),
        sid=st.sampled_from(PROPERTY_IDS),
        exponent=st.floats(-100.0, 100.0),
        scaled_start=st.booleans(),
    )
    def test_every_accepted_step_replays_as_wolfe(self, dims, seed, sid, exponent,
                                                   scaled_start):
        # the matrices scaled by c, so f by c (Rayleigh) or c^2 (offdiag); tol scales
        # alike, and alpha_init by 1 / scale when scaled_start, else stays 1
        c = 10.0**exponent
        if len(dims) == 1:
            base = rayleigh_instance(dims[0], seed)
            inst = RayleighInstance(matrix=base.matrix * c, x0=base.x0, seed=seed)
            scale = c
        else:
            n, p, num = dims
            base = offdiag_instance(n, min(p, n), num, seed)
            inst = OffDiagonalInstance(matrices=tuple(m * c for m in base.matrices),
                                       x0=base.x0, seed=seed)
            scale = c * c
        ls = LineSearchConfig(alpha_init=1.0 / scale if scaled_start else 1.0,
                              alpha_max=math.inf)
        cfg = config_from_id(sid, SolverConfig(tol=1e-10 * scale, max_iters=60,
                                               record_trace=True, line_search=ls))
        res = solve(inst, inst.initial_point(), cfg)
        for row in res.trace[:-1]:
            got = wolfe_check(inst, row.point, row.direction, row.alpha, ls, cfg.transport)
            assert got == (True, True), row.iteration

    def test_wolfe_interval_exists_and_is_found(self):
        # dense scan certifies an acceptance window on a strictly convex section
        inst = diag_rayleigh(1.0, 2.0)
        x = Point(Sphere(2), np.array([1.0, 1.0]) / np.sqrt(2.0))
        eta = -inst.grad(x)
        cfg = LineSearchConfig(max_evals=50)
        grid = np.linspace(1e-3, 2.0, 300)
        window = [a for a in grid if wolfe_check(inst, x, eta, float(a), cfg, DR) == (True, True)]
        assert window, "scan found no Wolfe step; test problem is misconfigured"
        alpha = search(inst, x, eta, cfg, DR).alpha
        assert wolfe_check(inst, x, eta, alpha, cfg, DR) == (True, True)

    def test_rescaled_direction_still_satisfies_wolfe(self):
        inst = diag_rayleigh(1.0, 3.0)
        x = Point(Sphere(2), np.array([1.0, 1.0]) / np.sqrt(2.0))
        eta = -inst.grad(x)
        a1 = search(inst, x, eta, self.cfg, DR).alpha
        a2 = search(inst, x, 2.0 * eta, self.cfg, DR).alpha
        assert wolfe_check(inst, x, eta, a1, self.cfg, DR) == (True, True)
        assert wolfe_check(inst, x, 2.0 * eta, a2, self.cfg, DR) == (True, True)

    def test_monotone_decrease(self):
        inst = rayleigh_instance(15, seed=9)
        rng = SplitMix64(4)
        x = random_point(inst.manifold, rng)
        f0 = inst.cost(x)
        g = inst.grad(x)
        eta = -g
        ev = search(inst, x, eta, self.cfg, DR)
        assert ev.f_new <= f0 + self.cfg.c1 * ev.alpha * inner(x, g, eta)
        assert ev.f_new < f0

    def test_budget_exhaustion_raises(self):
        inst = rayleigh_instance(15, seed=10)
        rng = SplitMix64(5)
        x = random_point(inst.manifold, rng)
        # absurdly long direction forces many shrink steps; tiny budget fails
        eta = -1e18 * inst.grad(x)
        with pytest.raises(LineSearchFailedError):
            search(inst, x, eta, LineSearchConfig(max_evals=5), DR)

    def test_search_step_fields_consistent(self):
        inst = rayleigh_instance(10, seed=12)
        rng = SplitMix64(6)
        x = random_point(inst.manifold, rng)
        eta = -inst.grad(x)
        ev = search(inst, x, eta, self.cfg, DR)
        assert ev.f_new == inst.cost(ev.x_new)
        assert np.array_equal(ev.g_new, inst.grad(ev.x_new))
        g = inst.grad(x)
        want = transport_direction(DR, x, eta, ev.alpha, g, ev.x_new)
        for got, w in zip((ev.t_eta, ev.t_g), want):
            assert np.array_equal(got, w)
        assert ev.dphi == inner(ev.x_new, ev.g_new, ev.t_eta)

    def test_nondescent_rejected(self):
        inst = rayleigh_instance(10, seed=12)
        x = random_point(inst.manifold, SplitMix64(6))
        with pytest.raises(ContractViolationError):
            search(inst, x, inst.grad(x), self.cfg, DR)

    def test_inverse_retraction_transport_accepted_steps(self):
        inst = rayleigh_instance(12, seed=19)
        rng = SplitMix64(8)
        kind = TransportKind.INVERSE_RETRACTION
        x = random_point(inst.manifold, rng)
        eta = -inst.grad(x)
        ev = search(inst, x, eta, self.cfg, kind)
        assert wolfe_check(inst, x, eta, ev.alpha, self.cfg, kind) == (True, True)


class _Scripted:
    """Cost f0 at x0 and f_trial at every trial point; the gradient vanishes off x0."""

    def __init__(self, x0, g0, f0, f_trial):
        self.x0, self.g0, self.f0, self.f_trial = x0, g0, f0, f_trial

    def cost(self, x):
        return self.f0 if x is self.x0 else self.f_trial

    def grad(self, x):
        return self.g0 if x is self.x0 else np.zeros(x.ambient.shape)


class _Wall:
    """On Sphere(2) from x = e1 along eta = e2, phi(alpha) = f(R_x(alpha eta)) is -alpha up to
    alpha = 1, then rises on a steep quadratic wall.  Its Wolfe steps lie in about
    (1 + 5e-4, 1.1): a shorter step passes Armijo and fails curvature (slope -1), a longer
    one fails Armijo.  A point at angle t from e1 is R_x(alpha eta) with alpha = tan t."""

    K = 100.0

    def phi(self, alpha):
        return -alpha + self.K * max(alpha - 1.0, 0.0) ** 2

    def cost(self, x):
        u = x.ambient
        return self.phi(u[1] / u[0])

    def grad(self, x):
        # d phi(tan t) / dt along the unit tangent (-sin t, cos t), so that the
        # differentiated retraction's <grad, T(eta)> is phi'(alpha)
        u = x.ambient
        alpha = u[1] / u[0]
        slope = -1.0 + 2.0 * self.K * max(alpha - 1.0, 0.0)
        return slope * (1.0 + alpha * alpha) * np.array([-u[1], u[0]])


class TestZoomInterval:
    """The zoom keeps 0 <= a_lo < a_hi: a trial that passes Armijo and fails the weak
    curvature test only raises a_lo, so the interval never reverses."""

    def test_every_zoom_trial_lies_inside_the_bracket(self, monkeypatch):
        problem = _Wall()
        x = Point(Sphere(2), np.array([1.0, 0.0]))
        g = problem.grad(x)
        eta = -g
        cfg = LineSearchConfig()
        trials = []
        real = linesearch.retract
        monkeypatch.setattr(linesearch, "retract",
                            lambda x_, e, alpha=1.0: trials.append(alpha) or real(x_, e, alpha))
        f0, d0 = problem.cost(x), inner(x, g, eta)
        ev = search_step(problem, x, eta, cfg, f0=f0, g0=g, d0=d0, alpha0=100.0)
        monkeypatch.undo()
        assert trials[-1] == ev.alpha and len(trials) > 8
        lo, f_lo, hi, raised = 0.0, f0, None, 0
        for i, alpha in enumerate(trials[:-1]):
            if hi is not None:
                assert lo < alpha < hi, (i, lo, alpha, hi)
            f = problem.cost(retract(x, eta, alpha))
            if armijo(problem, x, eta, alpha, f0, d0, f, cfg.c1)[0] and (i == 0 or f < f_lo):
                # passed Armijo and lowered f, so it failed curvature: a_lo
                assert wolfe_check(problem, x, eta, alpha, cfg) == (True, False)
                lo, f_lo = max(lo, alpha), f
                raised += hi is not None
            else:  # bracketed: failed Armijo, or no lower than a_lo
                hi = alpha if hi is None else min(hi, alpha)
        assert raised >= 2  # the zoom took Armijo-passing, curvature-failing trials
        assert lo < ev.alpha < hi
        assert wolfe_check(problem, x, eta, ev.alpha, cfg) == (True, True)


class TestAcceptanceArithmetic:
    """The first trial's acceptance, decided at the last bit."""

    def setup_method(self):
        self.x = Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
        self.g = np.array([0.0, -1.0, 0.0])
        self.eta = np.array([0.0, 2.59, 0.0])  # <g, eta> = -2.59 exactly

    def test_armijo_keeps_its_operation_order(self):
        # (c1 * alpha) * d0 and alpha * (c1 * d0) round apart here: a trial
        # whose cost equals f0 + c1 * alpha * d0 passes Armijo in that order only
        cfg = LineSearchConfig(c1=1e-4, alpha_init=0.3)
        d0 = -2.59
        f_trial = 0.0 + cfg.c1 * 0.3 * d0
        assert f_trial > 0.0 + 0.3 * (cfg.c1 * d0)
        problem = _Scripted(self.x, self.g, 0.0, f_trial)
        assert search(problem, self.x, self.eta, cfg).alpha == 0.3
        assert wolfe_check(problem, self.x, self.eta, 0.3, cfg) == (True, True)

    def test_first_trial_needs_only_armijo(self):
        # at f0 = 1e20 the Armijo decrease rounds away: a first trial with
        # f_new == f0 passes and is accepted; a later one would bracket
        cfg = LineSearchConfig()
        problem = _Scripted(self.x, self.g, 1e20, 1e20)
        assert search(problem, self.x, self.eta, cfg).alpha == cfg.alpha_init


class TestStartStep:
    @pytest.mark.parametrize("alpha0", [1e-3, 0.37])
    def test_first_trial_is_alpha0(self, monkeypatch, alpha0):
        trials = []

        def recording_retract(x, eta, alpha=1.0):
            trials.append(alpha)
            return retract(x, eta, alpha)

        monkeypatch.setattr(linesearch, "retract", recording_retract)
        inst = rayleigh_instance(30, seed=7)
        x = inst.initial_point()
        eta = -inst.grad(x)
        cfg = LineSearchConfig(alpha_init=0.5)
        ev = search(inst, x, eta, cfg, alpha0=alpha0)
        assert trials[0] == alpha0
        assert ev.alpha == trials[-1]
        assert wolfe_check(inst, x, eta, ev.alpha, cfg) == (True, True)

    def test_alpha0_capped_at_alpha_max(self):
        # the first trial is alpha_max, which passes both tests on this scripted problem
        x = Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
        g = np.array([0.0, -1.0, 0.0])
        eta = np.array([0.0, 1.0, 0.0])
        problem = _Scripted(x, g, 0.0, -1.0)
        cfg = LineSearchConfig(alpha_init=0.25, alpha_max=0.5)
        assert search(problem, x, eta, cfg, alpha0=4.0).alpha == 0.5

    @pytest.mark.parametrize("make", [lambda: rayleigh_instance(12, seed=3),
                                      lambda: offdiag_instance(4, 2, 2, seed=1)],
                             ids=["rayleigh", "offdiag"])
    @pytest.mark.parametrize("alpha0,alpha_max", [
        (-1.0, 1e10), (0.0, 1e10), (-0.0, 1e10), (math.nan, 1e10), (-math.inf, 1e10),
        (math.inf, math.inf),
    ], ids=["negative", "zero", "negative-zero", "nan", "minus-inf", "inf-uncapped"])
    def test_first_trial_checked_before_any_evaluation(self, monkeypatch, make, alpha0,
                                                       alpha_max):
        inst = make()
        x = inst.initial_point()
        f0, g = inst.cost(x), inst.grad(x)
        eta = -g
        d0 = inner(x, g, eta)
        evaluations = []
        for name in ("cost", "grad"):
            real = getattr(type(inst), name)
            monkeypatch.setattr(type(inst), name,
                                lambda self, p, _real=real: evaluations.append(p) or _real(self, p))
        cfg = LineSearchConfig(alpha_max=alpha_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no trial arithmetic, so no numpy warning
            with pytest.raises(ContractViolationError, match="first trial step"):
                search_step(inst, x, eta, cfg, f0=f0, g0=g, d0=d0, alpha0=alpha0)
        assert evaluations == []

    def test_an_infinite_start_capped_at_alpha_max_is_a_trial(self):
        # min(alpha0, alpha_max) is the first trial: inf capped at a finite alpha_max is valid
        inst = rayleigh_instance(12, seed=3)
        x = inst.initial_point()
        eta = -inst.grad(x)
        cfg = LineSearchConfig()
        assert search(inst, x, eta, cfg, alpha0=math.inf).alpha > 0.0

    def test_anchor_and_start_come_from_the_caller(self):
        # search_step has no default start and evaluates nothing at x
        params = inspect.signature(search_step).parameters
        for name in ("f0", "g0", "d0", "alpha0"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default is inspect.Parameter.empty


class _WithChange(_Scripted):
    """A scripted problem whose cost change is scripted too."""

    def __init__(self, x0, g0, f0, f_trial, change):
        super().__init__(x0, g0, f0, f_trial)
        self.change = change

    def cost_change(self, x, eta, alpha, f0, d0):
        return self.change


class TestArmijo:
    """One Armijo test: the plain predicate, or the cost change within the rounding floor."""

    finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)

    @settings(max_examples=300, deadline=None)
    @given(f0=finite, f_new=finite, near=st.one_of(st.none(), st.floats(-1e-10, 1e-10)),
           alpha=st.floats(1e-12, 1e6), d0=st.floats(-1e100, -1e-100), c1=st.floats(1e-6, 0.5),
           with_hook=st.booleans())
    def test_plain_predicate_away_from_the_floor(self, f0, f_new, near, alpha, d0, c1, with_hook):
        # near: f_new within a relative 1e-10 of f0, inside the floor band or just outside
        if near is not None:
            f_new = f0 + near * abs(f0)
        x = Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
        g = np.array([0.0, 1.0, 0.0])
        problem = (_WithChange(x, g, f0, f_new, -1.0) if with_hook
                   else _Scripted(x, g, f0, f_new))
        if with_hook:
            assume(abs(f_new - f0) > FLOOR_BAND * abs(f0))
        got = armijo(problem, x, -g, alpha, f0, d0, f_new, c1)
        assert got == (f_new <= f0 + c1 * alpha * d0, None)

    @pytest.mark.parametrize("change,ok", [(-1e-3, True), (-1e-5, False), (0.0, False)])
    def test_floor_form_tests_the_cost_change(self, change, ok):
        # f_new == f0 would pass the plain test at f0 = 1e20 (its decrease rounds
        # away); within the floor the change decides, against c1 * alpha * d0 = -1e-4
        x = Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
        g = np.array([0.0, 1.0, 0.0])
        problem = _WithChange(x, g, 1e20, 1e20, change)
        assert armijo(problem, x, -g, 1.0, 1e20, -1.0, 1e20, 1e-4) == (ok, change)
        cfg = LineSearchConfig(c1=1e-4)
        assert wolfe_check(problem, x, -g, 1.0, cfg)[0] is ok

    def test_offdiag_never_takes_the_floor_form(self):
        inst = offdiag_instance(4, 2, 2, seed=3)
        assert not hasattr(inst, "cost_change")
        x = inst.initial_point()
        g = inst.grad(x)
        f0 = inst.cost(x)
        assert armijo(inst, x, -g, 1e-3, f0, -1.0, f0, 1e-4) == (f0 <= f0 + 1e-4 * 1e-3 * -1.0, None)

    def test_rayleigh_floor_form_uses_its_cost_change(self):
        inst = rayleigh_instance(10, seed=2)
        x = inst.initial_point()
        g = inst.grad(x)
        f0 = inst.cost(x)
        d0 = inner(x, g, -g)
        alpha = 1e-20  # f_new rounds to f0, the change does not
        ok, change = armijo(inst, x, -g, alpha, f0, d0, inst.cost(retract(x, -g, alpha)), 1e-4)
        assert change == inst.cost_change(x, -g, alpha, f0, d0)
        assert ok and change < 0.0


class TestOnRay:
    """search_step names each trial to the problem's optional ``on_ray`` before its cost."""

    def _logged(self, monkeypatch):
        cls = type(rayleigh_instance(3, seed=1))
        on_ray, cost, log = cls.on_ray, cls.cost, []

        def named(self, x, eta, alpha, x_new):
            log.append(("ray", x, eta, alpha, x_new))
            return on_ray(self, x, eta, alpha, x_new)

        def evaluated(self, x):
            log.append(("cost", x))
            return cost(self, x)

        monkeypatch.setattr(cls, "on_ray", named)
        monkeypatch.setattr(cls, "cost", evaluated)
        return log

    def test_each_trial_is_named_before_its_cost(self, monkeypatch):
        inst = rayleigh_instance(20, seed=5)
        x = inst.initial_point()
        g = inst.grad(x)
        eta = -g
        f0 = inst.cost(x)
        log = self._logged(monkeypatch)
        # a short start: the search doubles, then zooms
        ev = search_step(inst, x, eta, LineSearchConfig(), f0=f0, g0=g, d0=inner(x, g, eta),
                         alpha0=1e-4)
        assert len(log) >= 4 and len(log) % 2 == 0
        for named, evaluated in zip(log[::2], log[1::2]):
            assert named[0] == "ray" and evaluated[0] == "cost"
            assert named[1] is x and named[2] is eta and named[4] is evaluated[1]
        assert log[-2][3] == ev.alpha and log[-1][1] is ev.x_new

    def test_wolfe_check_replays_with_direct_products(self, monkeypatch):
        inst = rayleigh_instance(20, seed=5)
        x = inst.initial_point()
        eta = -inst.grad(x)
        cfg = LineSearchConfig()
        alpha = search(inst, x, eta, cfg, alpha0=1e-4).alpha
        log = self._logged(monkeypatch)
        assert wolfe_check(inst, x, eta, alpha, cfg) == (True, True)
        assert [entry[0] for entry in log] == ["cost", "cost"]

    def test_a_problem_without_the_hook_is_searched_as_before(self):
        x = Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
        g = np.array([0.0, -1.0, 0.0])
        eta = np.array([0.0, 1.0, 0.0])
        problem = _Scripted(x, g, 0.0, -1.0)
        assert not hasattr(problem, "on_ray")
        assert search(problem, x, eta, LineSearchConfig(alpha_init=0.25)).alpha == 0.25
