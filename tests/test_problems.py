import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemqn import (
    ConfigError,
    ContractViolationError,
    InvalidPointError,
    OffDiagonalInstance,
    Oblique,
    Point,
    Sphere,
    SolverConfig,
    SplitMix64,
    config_from_id,
    generate_instance,
    inner,
    norm,
    offdiag_instance,
    random_point,
    RayleighInstance,
    random_tangent,
    rayleigh_instance,
    retract,
    solve,
)
from riemqn import problems as problems_mod
from riemqn.problems import _BLOCK, SYMMETRY_TOL

from _support import central_diff_directional, jacobi_eigenvalues, layout


class TestGeneration:
    def test_same_seed_identical(self):
        a = rayleigh_instance(12, seed=5)
        b = rayleigh_instance(12, seed=5)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.x0, b.x0)
        c = offdiag_instance(6, 3, 4, seed=5)
        d = offdiag_instance(6, 3, 4, seed=5)
        for m1, m2 in zip(c.matrices, d.matrices):
            assert np.array_equal(m1, m2)
        assert np.array_equal(c.x0, d.x0)

    def test_different_seeds_differ(self):
        a = rayleigh_instance(12, seed=5)
        b = rayleigh_instance(12, seed=6)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_rayleigh_dims(self):
        inst = rayleigh_instance(100, seed=1)
        assert inst.matrix.shape == (100, 100)
        assert inst.manifold == Sphere(100)

    def test_offdiag_dims(self):
        inst = offdiag_instance(10, 5, 5, seed=1)
        assert len(inst.matrices) == 5
        assert all(m.shape == (10, 10) for m in inst.matrices)
        assert inst.manifold == Oblique(10, 5)

    def test_matrices_exactly_symmetric(self):
        inst = rayleigh_instance(40, seed=9)
        assert np.array_equal(inst.matrix, inst.matrix.T)
        off = offdiag_instance(8, 2, 3, seed=9)
        for m in off.matrices:
            assert np.max(np.abs(m - m.T)) <= 1e-14

    def test_initial_point_on_manifold(self):
        inst = rayleigh_instance(25, seed=17)
        x = inst.initial_point()
        assert inst.manifold.point_defect(x.ambient) <= 1e-12
        off = offdiag_instance(7, 3, 2, seed=17)
        y = off.initial_point()
        assert off.manifold.point_defect(y.ambient) <= 1e-12

    def test_generate_instance_matches_factories(self):
        off = offdiag_instance(6, 2, 3, seed=44)
        again = generate_instance("offdiag", {"N": 3, "n": 6, "p": 2}, 44)
        assert np.array_equal(again.x0, off.x0)
        for m1, m2 in zip(again.matrices, off.matrices, strict=True):
            assert np.array_equal(m1, m2)
        ray = rayleigh_instance(9, seed=44)
        again = generate_instance("rayleigh", {"n": 9}, 44)
        assert np.array_equal(again.matrix, ray.matrix)
        assert np.array_equal(again.x0, ray.x0)

    def test_instances_match_pinned_digests(self):
        # sha256 of the C-ordered bytes, recorded before generation was chunked.  The
        # draws go through numpy's float64 log, cos and sin, whose last bit can depend
        # on the numpy build and the CPU's SIMD dispatch, so these pins hold for one
        # such build and dispatch (recorded with numpy 2.4.6 on AVX512)
        ray = rayleigh_instance(1000, 20250)
        assert hashlib.sha256(ray.matrix.tobytes()).hexdigest() == (
            "8217471b4b3f177cd2c0f2dbf48872a3f37ee17e3c2026c665dcd1d8e8de1594"
        )
        assert hashlib.sha256(ray.x0.tobytes()).hexdigest() == (
            "6c4c2d620d68d54f1b19a918053a2a5121198817f7a02235bef0e3b09f5b13da"
        )
        off = offdiag_instance(10, 5, 5, 30500)
        h = hashlib.sha256()
        for m in off.matrices:
            h.update(m.tobytes())
        h.update(off.x0.tobytes())
        assert h.hexdigest() == "dee2ce2f581371ae731d054a5043ea6f33136bc6f08274fae46842fbd0cca636"

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_generation_peak_is_the_matrix_plus_bounded_scratch(self, n):
        # an odd n draws an odd count, whose last pair keeps its cosine alone
        tracemalloc.start()
        try:
            inst = generate_instance("rayleigh", {"n": n}, 20250)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= inst.matrix.nbytes + 4 * 2**20

    def test_generate_instance_dispatch(self):
        inst = generate_instance("rayleigh", {"n": 8}, 3)
        assert inst.kind == "rayleigh"
        inst = generate_instance("offdiag", {"n": 5, "p": 2, "N": 3}, 3)
        assert inst.kind == "offdiag"


class TestRayleigh:
    def test_identity_matrix(self):
        inst = rayleigh_instance(4, seed=1)
        object.__setattr__(inst, "matrix", np.eye(4))
        x = random_point(inst.manifold, SplitMix64(2))
        assert inst.cost(x) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_cases(self):
        a = np.diag([1.0, 2.0])
        inst = rayleigh_instance(2, seed=1)
        object.__setattr__(inst, "matrix", a)
        e1 = Point(Sphere(2), np.array([1.0, 0.0]))
        assert inst.cost(e1) == 1.0
        assert norm(inst.grad(e1)) <= 1e-12

    def test_hand_values(self):
        a = np.diag([1.0, 2.0])
        inst = rayleigh_instance(2, seed=1)
        object.__setattr__(inst, "matrix", a)
        x = Point(Sphere(2), np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert inst.cost(x) == pytest.approx(1.5, rel=1e-14)
        want = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(inst.grad(x), want, atol=1e-14)

    def test_sign_symmetry(self):
        inst = rayleigh_instance(10, seed=33)
        x = inst.initial_point()
        minus = Point(inst.manifold, -x.ambient)
        assert inst.cost(minus) == pytest.approx(inst.cost(x), rel=1e-14)

    def test_minimum_is_smallest_eigenvalue(self):
        inst = rayleigh_instance(12, seed=8)
        lam = jacobi_eigenvalues(inst.matrix)
        vals = np.linalg.eigvalsh(inst.matrix)
        assert np.allclose(lam, vals, atol=1e-9)
        w = np.linalg.eigh(inst.matrix)[1][:, 0]
        x = Point(inst.manifold, w / np.linalg.norm(w))
        assert inst.cost(x) == pytest.approx(lam[0], rel=1e-12)
        assert norm(inst.grad(x)) <= 1e-10

    def test_dimension_mismatch(self):
        inst = rayleigh_instance(5, seed=2)
        other = random_point(Sphere(6), SplitMix64(1))
        with pytest.raises(ContractViolationError):
            inst.cost(other)


EPS = np.finfo(float).eps


def _scaled_setup(n, seed, scale):
    """Rayleigh (n, seed) scaled by ``scale``, its start x, f0, and the ambient array of a
    unit tangent eta with its d0."""
    base = rayleigh_instance(n, seed)
    inst = RayleighInstance(matrix=scale * base.matrix, x0=base.x0, seed=seed)
    x = inst.initial_point()
    eta = random_tangent(x, SplitMix64(seed))
    eta = eta / norm(eta)
    return inst, x, inst.cost(x), eta, inner(x, inst.grad(x), eta)


def _exact_change(a, x, eta, alpha):
    """q(x + alpha eta) - q(x) for q(v) = v'A v / v'v, in rational arithmetic."""
    a = [[Fraction(v) for v in row] for row in a.tolist()]
    x = [Fraction(v) for v in x.tolist()]
    v = [xi + Fraction(alpha) * ei for xi, ei in zip(x, (Fraction(e) for e in eta.tolist()))]

    def q(u):
        au = [sum(aij * uj for aij, uj in zip(row, u)) for row in a]
        return sum(ui * ai for ui, ai in zip(u, au)) / sum(ui * ui for ui in u)

    return q(v) - q(x)


class TestPointCheck:
    """A point enters a problem through its product memo, which checks its manifold once."""

    @pytest.mark.parametrize("call", ["cost", "grad", "on_ray", "cost_change"])
    def test_every_entry_rejects_another_dimension(self, call):
        inst = rayleigh_instance(5, 1)
        x = random_point(Sphere(6), SplitMix64(1))
        eta = random_tangent(x, SplitMix64(2))
        args = {"cost": (x,), "grad": (x,), "on_ray": (x, eta, 0.5, retract(x, eta, 0.5)),
                "cost_change": (x, eta, 0.5, 1.0, -1.0)}[call]
        with pytest.raises(ContractViolationError, match="dimension mismatch"):
            getattr(inst, call)(*args)

    @pytest.mark.parametrize("make", [lambda: rayleigh_instance(6, seed=4),
                                      lambda: offdiag_instance(5, 3, 2, seed=4)],
                             ids=["rayleigh", "offdiag"])
    def test_equal_manifold_compared_once_per_point(self, monkeypatch, make):
        # a point on an equal but distinct manifold object is compared on the memo
        # miss only, so cost then grad at it make one comparison
        inst = make()
        m = inst.manifold
        twin = Point(type(m)(*m.ambient_shape), inst.x0)
        check, calls = problems_mod._check_point, []

        def counted(instance, x):
            calls.append(x)
            return check(instance, x)

        monkeypatch.setattr(problems_mod, "_check_point", counted)
        inst.cost(twin)
        inst.grad(twin)
        assert len(calls) == 1 and calls[0] is twin


class TestCostChange:
    """``RayleighInstance.cost_change`` is f(R_x(alpha eta)) - f(x) without the cancellation."""

    scales = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)
    alphas = st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1), scale=scales, alpha=alphas)
    def test_agrees_with_the_difference(self, n, seed, scale, alpha):
        # each computed quotient x'A x is within about n eps |x|'|A||x| <= n eps |A|_F of
        # its value, so the difference of two is within 2 n eps |A|_F of the change
        inst, x, f0, eta, d0 = _scaled_setup(n, seed, scale)
        change = inst.cost_change(x, eta, alpha, f0, d0)
        diff = inst.cost(retract(x, eta, alpha)) - f0
        assert abs(change - diff) <= 4 * n * EPS * np.linalg.norm(inst.matrix)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), scale=scales, alpha=alphas)
    def test_has_no_cancellation(self, n, seed, scale, alpha):
        # against the exact change of the quotient: the error shrinks with the step,
        # where the difference keeps an error of order eps |A|
        inst, x, f0, eta, d0 = _scaled_setup(n, seed, scale)
        change = inst.cost_change(x, eta, alpha, f0, d0)
        exact = _exact_change(inst.matrix, x.ambient, eta, alpha)
        bound = 4 * n * EPS * np.linalg.norm(inst.matrix) * alpha * (1.0 + alpha)
        assert abs(Fraction(change) - exact) <= Fraction(bound)

    def test_long_direction_does_not_overflow(self):
        # |eta| ~ 1e150 on a matrix scaled by 1e150: eta'A eta itself would be inf
        inst, x, f0, _, _ = _scaled_setup(30, 7, 1e150)
        g = inst.grad(x)
        eta = -g
        d0 = inner(x, g, eta)
        alpha = 1e-152
        change = inst.cost_change(x, eta, alpha, f0, d0)
        diff = inst.cost(retract(x, eta, alpha)) - f0
        assert np.isfinite(change) and change < 0.0
        assert abs(change - diff) <= 4 * 30 * EPS * np.linalg.norm(inst.matrix)

    def test_a_eta_once_per_direction(self):
        # on the search's ray A eta is read from its entry, with no product with A;
        # off it every call makes one, and no call opens, replaces or changes the entry
        inst, x, f0, eta, d0 = _scaled_setup(20, 4, 1.0)
        TestRay._trial(inst, x, eta, 0.5)
        ray = inst._ray
        held = (ray.x, ray.eta, ray.a1, ray.c1, ray.ax, ray.ax1)

        class CountingMatrix:
            calls = 0

            def __matmul__(self, other):
                CountingMatrix.calls += 1
                return matrix @ other

        matrix = inst.matrix
        object.__setattr__(inst, "matrix", CountingMatrix())
        first = inst.cost_change(x, eta, 0.25, f0, d0)
        for alpha in (0.5, 1e-3, 0.25):
            inst.cost_change(x, eta, alpha, f0, d0)
        assert CountingMatrix.calls == 0
        assert inst.cost_change(x, eta, 0.25, f0, d0) == first
        other = eta.copy()  # a new direction
        for calls, alpha in enumerate((0.5, 0.25, 0.5), start=1):
            inst.cost_change(x, other, alpha, f0, d0)
            assert CountingMatrix.calls == calls
        assert inst._ray is ray
        assert all(a is b for a, b in zip((ray.x, ray.eta, ray.a1, ray.c1, ray.ax, ray.ax1), held))


class TestRay:
    """On the search's ray, trial products with A are derived from the two in hand."""

    scales = TestCostChange.scales
    ts = st.floats(0.0, 1.0, exclude_min=True)

    @staticmethod
    def _trial(inst, x, eta, alpha):
        """The trial retract(x, eta, alpha), named and evaluated as search_step does."""
        x_t = retract(x, eta, alpha)
        inst.on_ray(x, eta, alpha, x_t)
        inst.cost(x_t)
        return x_t

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1), scale=scales,
           reach=st.floats(-14.0, 1.0).map(lambda e: 10.0 ** e),
           ts=st.lists(ts, min_size=1, max_size=6))
    def test_derived_product_is_within_the_bound(self, n, seed, scale, reach, ts):
        # |eta| = 1, so reach is alpha_1 |eta|; each t names the trial t alpha_1
        inst, x, _, eta, _ = _scaled_setup(n, seed, scale)
        x_1 = self._trial(inst, x, eta, reach)
        assert inst._ray.a1 == reach and inst._ray.ax1 is inst._memo[1]
        bound = 4 * n * EPS * np.linalg.norm(inst.matrix)
        for t in ts:
            x_t = self._trial(inst, x, eta, t * reach)
            point, derived = inst._memo
            assert point is x_t and inst._ray.a1 == reach  # no product past alpha_1
            assert np.linalg.norm(derived - inst.matrix @ x_t.ambient) <= bound
        assert x_1 is not x
        # another direction from the same x opens another ray
        x_o = self._trial(inst, x, -eta, 0.5 * reach)
        assert np.linalg.norm(inst._memo[1] - inst.matrix @ x_o.ambient) <= bound

    def test_vanished_step_reads_a_x_itself(self):
        # a later trial whose step underflows is x itself: its product is the A x in
        # hand, not one interpolated with weight 1 / |x| (|x| is not 1.0 at seed 0)
        inst, x, f0, eta, _ = _scaled_setup(20, 0, 1.0)
        eta = 0.25 * eta  # 5e-324 * |eta_i| rounds to 0
        self._trial(inst, x, eta, 0.5)
        assert self._trial(inst, x, eta, 5e-324) is x
        assert inst._memo[0] is x and inst.cost(x) == f0
        assert inst._memo[1].tobytes() == (inst.matrix @ x.ambient).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), scale=scales,
           alpha_1=TestCostChange.alphas, t=st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e))
    def test_floor_form_through_the_ray_has_no_cancellation(self, n, seed, scale, alpha_1, t):
        # TestCostChange's bound, with A eta taken as (c_1 A x_1 - A x) / alpha_1
        inst, x, f0, eta, d0 = _scaled_setup(n, seed, scale)
        alpha = t * alpha_1
        self._trial(inst, x, eta, alpha_1)
        self._trial(inst, x, eta, alpha)
        change = inst.cost_change(x, eta, alpha, f0, d0)
        assert inst._ray.a1 == alpha_1
        exact = _exact_change(inst.matrix, x.ambient, eta, alpha)
        bound = 4 * n * EPS * np.linalg.norm(inst.matrix) * alpha * (1.0 + alpha)
        assert abs(Fraction(change) - exact) <= Fraction(bound)

    @pytest.mark.parametrize("sid", ["broyden_bfgs_lf_xi0.1_dr", "hz_dr", "dy_proj",
                                     "broyden_preconvex_powell_xi0.8_invret"])
    @pytest.mark.parametrize("scale", [1.0, 1e50, 1e100])
    def test_every_gradient_reads_a_product_within_the_bound(self, monkeypatch, sid, scale):
        base = rayleigh_instance(100, seed=4)
        inst = RayleighInstance(matrix=scale * base.matrix, x0=base.x0, seed=4)
        grad, errors = RayleighInstance.grad, []

        def checked(self, x):
            errors.append(np.linalg.norm(self._product(x) - self.matrix @ x.ambient))
            return grad(self, x)

        monkeypatch.setattr(RayleighInstance, "grad", checked)
        cfg = config_from_id(sid, SolverConfig(tol=1e-6 * scale))
        assert solve(inst, inst.initial_point(), cfg).converged
        assert max(errors) <= 4 * 100 * EPS * np.linalg.norm(inst.matrix)
        assert sum(e > 0.0 for e in errors) > 0  # some gradients read a derived product

    def test_one_direct_product_per_search_and_per_longer_trial(self, monkeypatch):
        inst = rayleigh_instance(30, seed=7)
        matrix = inst.matrix

        class CountingMatrix:
            calls = 0

            def __matmul__(self, other):
                CountingMatrix.calls += 1
                return matrix @ other

        object.__setattr__(inst, "matrix", CountingMatrix())
        on_ray, cost_change = RayleighInstance.on_ray, RayleighInstance.cost_change
        seen = {"ray": None, "longest": 0.0, "searches": 0, "longer": 0, "changes": 0}

        def named(self, x, eta, alpha, x_new):
            if seen["ray"] is None or seen["ray"][0] is not x or seen["ray"][1] is not eta:
                seen["ray"], seen["longest"] = (x, eta), 0.0
                seen["searches"] += 1
            elif alpha > seen["longest"]:
                seen["longer"] += 1
            seen["longest"] = max(seen["longest"], alpha)
            return on_ray(self, x, eta, alpha, x_new)

        def change(self, *args):
            seen["changes"] += 1
            return cost_change(self, *args)

        monkeypatch.setattr(RayleighInstance, "on_ray", named)
        monkeypatch.setattr(RayleighInstance, "cost_change", change)
        res = solve(inst, inst.initial_point(), config_from_id("broyden_bfgs_lf_xi0.1_dr"))
        assert res.converged
        # one product for f(x0), one per search, one per trial past the longest so
        # far, and none for the floor form
        assert CountingMatrix.calls == 1 + seen["searches"] + seen["longer"]
        assert (res.iters, seen["searches"], seen["longer"], CountingMatrix.calls) == (54, 54, 1, 56)
        assert seen["changes"] > 0


class TestOffDiagonal:
    def test_orthonormal_columns_identity_matrices(self):
        inst = offdiag_instance(4, 2, 3, seed=1)
        object.__setattr__(inst, "matrices", (np.eye(4),) * 3)
        object.__setattr__(inst, "_stacked", np.stack([np.eye(4)] * 3))
        x = Point(Oblique(4, 2), np.eye(4)[:, :2])
        assert inst.cost(x) == 0.0
        assert norm(inst.grad(x)) <= 1e-14

    def test_p_equals_one_degenerate(self):
        inst = offdiag_instance(6, 1, 3, seed=12)
        x = inst.initial_point()
        assert inst.cost(x) == 0.0
        assert norm(inst.grad(x)) == 0.0

    def test_diag_matrix_hand_case(self):
        c = np.diag([1.0, -1.0])
        inst = offdiag_instance(2, 2, 1, seed=1)
        object.__setattr__(inst, "matrices", (c,))
        object.__setattr__(inst, "_stacked", c[None, :, :])
        eye = Point(Oblique(2, 2), np.eye(2))
        assert inst.cost(eye) == 0.0
        s = 1.0 / np.sqrt(2.0)
        rot = Point(Oblique(2, 2), np.array([[s, -s], [s, s]]))
        # brute-force evaluation of the definition
        m = rot.ambient.T @ c @ rot.ambient
        e = m - np.diag(np.diag(m))
        assert inst.cost(rot) == pytest.approx(float(np.sum(e * e)), rel=1e-14)
        assert inst.cost(rot) > 0.5

    def test_zero_cost_on_joint_diagonalizable_instances(self):
        # C_i = Q D_i Q' with a shared orthogonal Q; X = first p columns of Q
        rng = np.random.default_rng(7)
        n, p = 6, 3
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mats = tuple(q @ np.diag(rng.standard_normal(n)) @ q.T for _ in range(4))
        mats = tuple(0.5 * (m + m.T) for m in mats)
        inst = offdiag_instance(n, p, 4, seed=1)
        object.__setattr__(inst, "matrices", mats)
        object.__setattr__(inst, "_stacked", np.stack(mats))
        x = Point(Oblique(n, p), q[:, :p].copy())
        assert inst.cost(x) <= 1e-24
        assert norm(inst.grad(x)) <= 1e-11

    def test_cost_nonnegative(self):
        inst = offdiag_instance(5, 3, 2, seed=21)
        rng = SplitMix64(3)
        for _ in range(10):
            x = random_point(inst.manifold, rng)
            assert inst.cost(x) >= 0.0

    def test_matrices_of_different_sizes_rejected(self):
        inst = offdiag_instance(4, 2, 2, seed=1)
        with pytest.raises(ConfigError, match="same row count"):
            OffDiagonalInstance(matrices=(inst.matrices[0], np.eye(3)), x0=inst.x0, seed=1)

    def test_dimension_mismatch(self):
        inst = offdiag_instance(5, 3, 2, seed=2)
        other = random_point(Oblique(5, 4), SplitMix64(1))
        with pytest.raises(ContractViolationError):
            inst.grad(other)


def _inf_diagonal(a):
    a = np.array(a)
    np.fill_diagonal(a, np.inf)
    return a


def _all_nan(a):
    return np.full_like(a, np.nan)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteData:
    @pytest.mark.parametrize("spoil", [_inf_diagonal, _all_nan], ids=["inf_diagonal", "all_nan"])
    def test_rayleigh_rejected(self, spoil):
        inst = rayleigh_instance(5, seed=3)
        with pytest.raises(ConfigError, match="non-finite"):
            RayleighInstance(matrix=spoil(inst.matrix), x0=inst.x0, seed=3)

    @pytest.mark.parametrize("spoil", [_inf_diagonal, _all_nan], ids=["inf_diagonal", "all_nan"])
    def test_offdiag_rejected(self, spoil):
        inst = offdiag_instance(5, 3, 2, seed=3)
        matrices = (inst.matrices[0], spoil(inst.matrices[1]))
        with pytest.raises(ConfigError, match="non-finite"):
            OffDiagonalInstance(matrices=matrices, x0=inst.x0, seed=3)

    def test_finite_asymmetry_still_a_contract_violation(self):
        a = np.array(rayleigh_instance(4, seed=3).matrix)
        a[0, 1] += 1.0
        with pytest.raises(ContractViolationError, match="not symmetric"):
            RayleighInstance(matrix=a, x0=rayleigh_instance(4, seed=3).x0, seed=3)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBlockwiseSymmetryCheck:
    """The check visits a matrix larger than one block a block pair at a time and
    makes the decisions, and gives the messages, of the whole-matrix defect."""

    N = 2 * _BLOCK + 9
    FAR = (_BLOCK + 3, 2 * _BLOCK + 4)  # an entry in the last block pair off the diagonal

    def _matrix(self):
        return np.array(rayleigh_instance(self.N, seed=8).matrix)

    def _build(self, a):
        return RayleighInstance(matrix=a, x0=rayleigh_instance(self.N, seed=8).x0, seed=8)

    def test_mirrored_inf_pair_rejected(self):
        # an exact-symmetry shortcut would let it through: inf - inf is nan, not 0
        a = self._matrix()
        i, j = self.FAR
        a[i, j] = a[j, i] = np.inf
        with pytest.raises(ConfigError, match=rf"matrix has 2 non-finite entries, the first at \({i}, {j}\)"):
            self._build(a)

    def test_nan_rejected_naming_the_first_entry(self):
        a = self._matrix()
        a[self.N - 1, 2] = np.nan
        a[_BLOCK + 1, _BLOCK + 1] = np.nan
        first = (_BLOCK + 1, _BLOCK + 1)
        with pytest.raises(ConfigError, match=rf"2 non-finite entries, the first at \({first[0]}, {first[1]}\)"):
            self._build(a)

    def test_asymmetry_at_the_tolerance_passes(self):
        a = self._matrix()
        i, j = self.FAR
        a[i, j], a[j, i] = 0.0, SYMMETRY_TOL
        assert self._build(a).matrix[j, i] == SYMMETRY_TOL

    def test_asymmetry_past_the_tolerance_names_the_largest_defect(self):
        a = self._matrix()
        a[0, 1], a[1, 0] = 0.0, 2.0 * SYMMETRY_TOL
        i, j = self.FAR
        a[i, j], a[j, i] = 0.0, 3.0 * SYMMETRY_TOL
        with pytest.raises(ContractViolationError, match=r"not symmetric \(defect 3\.000e-14\)"):
            self._build(a)
        a[i, j] = a[j, i]
        with pytest.raises(ContractViolationError, match=r"not symmetric \(defect 2\.000e-14\)"):
            self._build(a)


def _with_entry(x0, index, value):
    x0 = np.array(x0)
    x0[index] = value
    return x0


class TestInitialPointChecked:
    """x0 is checked once, when the instance is built."""

    def test_rayleigh_nan_rejected(self):
        inst = rayleigh_instance(5, seed=3)
        with pytest.raises(ConfigError, match=r"x0 has 2 non-finite entries, the first at \(1,\)"):
            RayleighInstance(matrix=inst.matrix, x0=_with_entry(inst.x0, [1, 3], np.nan), seed=3)

    def test_offdiag_inf_rejected(self):
        inst = offdiag_instance(5, 3, 2, seed=3)
        with pytest.raises(ConfigError, match=r"x0 has 1 non-finite entries, the first at \(2, 1\)"):
            OffDiagonalInstance(
                matrices=inst.matrices, x0=_with_entry(inst.x0, (2, 1), np.inf), seed=3
            )

    def test_rayleigh_wrong_shape_rejected(self):
        inst = rayleigh_instance(4, seed=3)
        with pytest.raises(InvalidPointError, match="shape"):
            RayleighInstance(matrix=inst.matrix, x0=np.ones(7), seed=3)

    def test_off_constraint_rejected(self):
        ray = rayleigh_instance(4, seed=3)
        with pytest.raises(InvalidPointError, match="constraint"):
            RayleighInstance(matrix=ray.matrix, x0=2.0 * ray.x0, seed=3)
        off = offdiag_instance(5, 3, 2, seed=3)
        with pytest.raises(InvalidPointError, match="constraint"):
            OffDiagonalInstance(matrices=off.matrices, x0=_with_entry(off.x0, (0, 2), 5.0), seed=3)

    def test_initial_point_and_manifold_built_once(self):
        for inst in (rayleigh_instance(6, seed=3), offdiag_instance(5, 3, 2, seed=3)):
            assert inst.initial_point() is inst.initial_point()
            assert inst.initial_point().manifold is inst.manifold
            assert np.array_equal(inst.initial_point().ambient, inst.x0)


class TestDims:
    @pytest.mark.parametrize(
        "kind,dims",
        [
            ("rayleigh", {"n": 10.9}),
            ("rayleigh", {"n": True}),
            ("rayleigh", {"n": "10"}),
            ("rayleigh", {}),
            ("rayleigh", {"n": 10, "p": 2}),
            ("offdiag", {"n": 6, "p": 3}),
            ("offdiag", {"n": 6, "p": 3.0, "N": 2}),
            ("offdiag", {"n": 6, "p": 0, "N": 2}),
            ("offdiag", [6, 3, 2]),
            ("cube", {"n": 6}),
        ],
    )
    def test_rejected(self, kind, dims):
        with pytest.raises(ConfigError):
            generate_instance(kind, dims, 1)

    def test_numpy_integers_accepted(self):
        inst = generate_instance("offdiag", {"n": np.int64(6), "p": np.int32(3), "N": 2}, 1)
        assert inst.manifold == Oblique(6, 3)
        assert len(inst.matrices) == 2

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            generate_instance(["rayleigh"], {"n": 5}, 1)


class TestStrictFactories:
    """The public factories take positive-integer dims and an integer seed."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: rayleigh_instance(True, 1),
            lambda: rayleigh_instance(2.5, 1),
            lambda: rayleigh_instance(0, 1),
            lambda: rayleigh_instance(5, "7"),
            lambda: rayleigh_instance(5, 2.5),
            lambda: rayleigh_instance(5, 7.0),
            lambda: rayleigh_instance(5, True),
            lambda: rayleigh_instance(5, None),
            lambda: offdiag_instance(4.0, 2, 3, 1),
            lambda: offdiag_instance(4, 2.0, 3, 1),
            lambda: offdiag_instance(4, 2, 3.7, 1),
            lambda: offdiag_instance(4, 2, 0, 1),
            lambda: offdiag_instance(4, -1, 3, 1),
            lambda: generate_instance("rayleigh", {"n": 5}, "7"),
            lambda: generate_instance("offdiag", {"n": 4, "p": 2, "N": 3}, 1.0),
        ],
        ids=[
            "ray_n_bool", "ray_n_float", "ray_n_zero", "ray_seed_str", "ray_seed_float",
            "ray_seed_whole_float", "ray_seed_bool", "ray_seed_none", "off_n_float",
            "off_p_float", "off_N_float", "off_N_zero", "off_p_negative", "generate_seed_str",
            "generate_seed_float",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_numpy_integers_accepted(self):
        ray = rayleigh_instance(np.int64(5), np.uint32(7))
        assert type(ray.seed) is int
        assert np.array_equal(ray.matrix, rayleigh_instance(5, 7).matrix)
        off = offdiag_instance(np.int32(4), np.int64(2), np.int16(3), np.int64(7))
        assert type(off.seed) is int
        assert np.array_equal(off.x0, offdiag_instance(4, 2, 3, 7).x0)


class TestFrozenData:
    """The arrays an instance is built from become read-only."""

    def test_rayleigh_arrays_frozen(self):
        ray = rayleigh_instance(4, seed=3)
        a, x0 = np.array(ray.matrix), np.array(ray.x0)
        inst = RayleighInstance(matrix=a, x0=x0, seed=3)
        for arr in (a, x0, inst.matrix, inst.x0):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_offdiag_arrays_frozen(self):
        off = offdiag_instance(5, 3, 2, seed=3)
        mats, x0 = [np.array(m) for m in off.matrices], np.array(off.x0)
        inst = OffDiagonalInstance(matrices=tuple(mats), x0=x0, seed=3)
        for arr in (*mats, x0, *inst.matrices, inst.x0):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


    def test_offdiag_matrices_are_views_of_the_one_stack(self):
        inst = offdiag_instance(6, 3, 4, seed=3)
        stacked = inst._stacked
        assert not stacked.flags.writeable
        assert len(inst.matrices) == 4
        for i, m in enumerate(inst.matrices):
            assert np.shares_memory(m, stacked)
            assert m.tobytes() == stacked[i].tobytes()
            with pytest.raises(ValueError):
                m[0, 0] = 1.0


class TestGradientFiniteDifferences:
    @pytest.mark.parametrize("kind,dims", [("rayleigh", {"n": 9}), ("offdiag", {"n": 6, "p": 3, "N": 3})])
    def test_gradient_matches_central_differences(self, kind, dims):
        for seed in range(3):
            inst = generate_instance(kind, dims, 100 + seed)
            rng = SplitMix64(seed)
            x = random_point(inst.manifold, rng)
            g = inst.grad(x)
            for _ in range(5):
                eta = random_tangent(x, rng, unit=True)
                want = inner(x, g, eta)
                got = central_diff_directional(inst, x, eta, t=1e-6)
                assert abs(got - want) <= 1e-5 * (1.0 + abs(want))


def _dims(kind, n, p, num):
    return {"n": n} if kind == "rayleigh" else {"n": n, "p": p, "N": num}


class TestMemo:
    """cost/grad share one memo entry per instance, matched by Point identity."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rayleigh", "offdiag"]),
        shape=st.tuples(st.integers(1, 7), st.integers(1, 4), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(
            st.tuples(st.sampled_from(["cost", "grad"]), st.integers(0, 4)), min_size=1, max_size=16
        ),
    )
    def test_interleaved_calls_equal_a_fresh_instance(self, kind, shape, seed, calls):
        dims = _dims(kind, *shape)
        inst = generate_instance(kind, dims, seed)
        x0 = inst.initial_point()
        rng = SplitMix64(seed)
        y = random_point(inst.manifold, rng)
        pool = [
            x0,
            Point(inst.manifold, x0.ambient.copy()),  # bitwise equal, a distinct Point
            y,
            retract(y, random_tangent(y, rng), 0.5),
            Point(inst.manifold, y.ambient.copy()),
        ]
        for name, i in calls:
            x = pool[i]
            got = getattr(inst, name)(x)
            want = getattr(generate_instance(kind, dims, seed), name)(x)
            if name == "cost":
                assert got.hex() == want.hex()
            else:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["rayleigh", "offdiag"])
    def test_entry_is_read_only_and_checked(self, kind):
        inst = generate_instance(kind, _dims(kind, 5, 3, 2), 11)
        x = inst.initial_point()
        inst.cost(x)
        point, *products = inst._memo
        assert point is x
        assert products and not any(a.flags.writeable for a in products)
        other = generate_instance(kind, _dims(kind, 6, 2, 2), 11).initial_point()
        with pytest.raises(ContractViolationError):
            inst.grad(other)

    # (iterations, cost calls, grad calls) of one solve, recorded before the memo
    # and re-recorded when the line search came to start at the quadratic step
    # when each transported image became one scaled projection, and when Rayleigh
    # trials came to take their products from the two in hand on the search's ray
    @pytest.mark.parametrize(
        "kind, dims, seed, sid, counts",
        [
            ("rayleigh", {"n": 30}, 7, "broyden_bfgs_lf_xi0.1_dr", (54, 76, 56)),
            ("rayleigh", {"n": 30}, 7, "hz_dr", (75, 98, 76)),
            ("offdiag", {"n": 6, "p": 3, "N": 2}, 3, "broyden_bfgs_powell_xi0.8_invret",
             (30, 55, 31)),
            ("offdiag", {"n": 6, "p": 3, "N": 2}, 3, "dy_proj", (29, 59, 34)),
        ],
    )
    def test_solve_makes_the_same_calls(self, monkeypatch, kind, dims, seed, sid, counts):
        # cost and grad wrapped as class attributes with counters, as the
        # benchmark's instrumentation wraps them
        inst = generate_instance(kind, dims, seed)
        cls = type(inst)
        seen = {"cost": 0, "grad": 0, "hits": 0}
        cost, grad = cls.cost, cls.grad

        def counted_cost(self, x):
            seen["cost"] += 1
            return cost(self, x)

        def counted_grad(self, x):
            seen["grad"] += 1
            seen["hits"] += self._memo[0] is x
            return grad(self, x)

        monkeypatch.setattr(cls, "cost", counted_cost)
        monkeypatch.setattr(cls, "grad", counted_grad)
        result = solve(inst, inst.initial_point(), config_from_id(sid, SolverConfig()))
        assert result.converged
        assert (result.iters, seen["cost"], seen["grad"]) == counts
        # every gradient in a solve follows the cost of the same point
        assert seen["hits"] == seen["grad"]


def _ref_offdiag(inst, xa):
    """Offdiag cost and projected gradient written with np.sum and fancy indexing."""
    cx = np.stack(inst.matrices) @ xa
    e = xa.T @ cx
    idx = np.arange(e.shape[-1])
    e[:, idx, idx] = 0.0
    g = 4.0 * np.sum(cx @ e, axis=0)
    return float(np.sum(e * e)), g - xa * np.sum(xa * g, axis=0)


class TestOffDiagonalReductions:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 7), st.integers(1, 5), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-300.0, 300.0),
        order=st.sampled_from("CFT"),
    )
    def test_cost_and_grad_match_the_wrapper_forms(self, shape, seed, log_scale, order):
        base = offdiag_instance(*shape, seed)
        scale = 10.0**log_scale
        mats = tuple(c * scale for c in base.matrices)

        def build():
            return OffDiagonalInstance(matrices=mats, x0=base.x0, seed=seed)

        inst = build()
        xa = random_point(inst.manifold, SplitMix64(seed)).ambient
        x = Point(inst.manifold, layout(xa, order))
        with np.errstate(all="ignore"):
            want_f, want_g = _ref_offdiag(inst, x.ambient)
            assert inst.cost(x).hex() == want_f.hex()
            assert inst.grad(x).tobytes() == want_g.tobytes()  # from the memo
            assert build().grad(x).tobytes() == want_g.tobytes()  # computed afresh
