import json

import numpy as np
import pytest

from riemqn import (
    ConfigError,
    ContractViolationError,
    InvalidPointError,
    OffDiagonalInstance,
    Oblique,
    Point,
    Sphere,
    SplitMix64,
    generate_instance,
    inner,
    instance_from_descriptor,
    norm,
    offdiag_instance,
    random_point,
    RayleighInstance,
    random_tangent,
    rayleigh_instance,
)

from _support import central_diff_directional, jacobi_eigenvalues


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

    def test_descriptor_roundtrip(self):
        inst = offdiag_instance(6, 2, 3, seed=44)
        desc = json.loads(json.dumps(inst.descriptor()))
        again = instance_from_descriptor(desc)
        assert np.array_equal(again.x0, inst.x0)
        for m1, m2 in zip(again.matrices, inst.matrices):
            assert np.array_equal(m1, m2)
        ray = rayleigh_instance(9, seed=44)
        again = instance_from_descriptor(json.loads(json.dumps(ray.descriptor())))
        assert np.array_equal(again.matrix, ray.matrix)

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
        assert np.allclose(inst.grad(x).ambient, want, atol=1e-14)

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
        assert inst.descriptor()["dims"] == {"n": 6, "p": 3, "N": 2}

    def test_descriptor_seed_must_be_an_integer(self):
        with pytest.raises(ConfigError):
            instance_from_descriptor({"kind": "rayleigh", "dims": {"n": 5}, "seed": "7"})


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
