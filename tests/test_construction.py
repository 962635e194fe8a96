"""How Point, Tangent and the step records are built.

``Point`` and ``Tangent`` run their checks in ``__post_init__``, looked up on
the class: the benchmark counts constructions by replacing that attribute in
the class ``__dict__``, so every construction must go through it.  The step
records (``StepEval``, ``BroydenParams``) are immutable.
``TestChecksKept`` holds every check of that one frame: coercion, shape,
the constraint (before freezing), copy-if-view and freezing, and the base
checks that ``inner``, ``retract`` and ``transport_direction`` make only
when a vector's point is not the given point itself.
"""

import dataclasses

import numpy as np
import pytest

from riemqn import (
    BroydenParams,
    ContractViolationError,
    DirectionKind,
    InvalidPointError,
    LineSearchConfig,
    Oblique,
    PhiMode,
    Point,
    Sphere,
    SplitMix64,
    StepEval,
    Tangent,
    TransportKind,
    ZMode,
    broyden_direction,
    compute_z,
    inner,
    offdiag_instance,
    project_tangent,
    random_point,
    random_tangent,
    rayleigh_instance,
    retract,
    schedule_params,
    transport_direction,
)
from riemqn.directions import cg_beta, cg_direction

from _support import search

MANIFOLDS = [Sphere(6), Oblique(5, 3)]


@pytest.fixture
def built(monkeypatch):
    """Counts of Point and Tangent ``__post_init__`` calls, wrapped as the benchmark wraps them."""
    counts = {Point: 0, Tangent: 0}
    for cls in counts:
        original = cls.__dict__["__post_init__"]

        def counted(self, _cls=cls, _original=original):
            counts[_cls] += 1
            return _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    def since(before=None):
        now = (counts[Point], counts[Tangent])
        return now if before is None else (now[0] - before[0], now[1] - before[1])

    return since


def _data(manifold, seed=1):
    rng = SplitMix64(seed)
    x = random_point(manifold, rng)
    return x, random_tangent(x, rng), random_tangent(x, rng)


@pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
class TestOneCheckPerObject:
    def test_direct_construction(self, manifold, built):
        x, eta, _ = _data(manifold)
        before = built()
        Point(manifold, np.array(x.ambient))
        Point(manifold=manifold, ambient=x.ambient)
        Tangent(x, np.array(eta.ambient))
        Tangent(point=x, ambient=eta.ambient)
        assert built(before) == (2, 2)

    def test_retract_and_project(self, manifold, built):
        x, eta, _ = _data(manifold)
        before = built()
        x_new = retract(x, eta, 0.5)
        assert built(before) == (1, 0)
        assert isinstance(x_new, Point) and x_new is not x
        before = built()
        assert retract(x, eta, 0.0) is x  # a zero step builds nothing
        assert built(before) == (0, 0)
        before = built()
        project_tangent(x, eta.ambient)
        assert built(before) == (0, 1)

    @pytest.mark.parametrize("kind", list(TransportKind), ids=lambda k: k.name)
    def test_transport(self, manifold, kind, built):
        x, eta, g = _data(manifold)
        x_new = retract(x, eta, 0.25)
        before = built()
        outs = transport_direction(kind, x, eta, 0.25, g, x_new)
        assert built(before) == (0, 2)
        assert len({id(t) for t in outs}) == 2
        assert all(t.point is x_new for t in outs)

    def test_directions(self, manifold, built):
        x, s, g = _data(manifold)
        y = Tangent(x, -s.ambient)  # <s, y> < 0: Li-Fukushima lifts it
        before = built()
        z = compute_z(ZMode.LI_FUKUSHIMA, s, y, 1e-6)
        assert z is not y and built(before) == (0, 1)
        before = built()
        assert compute_z(ZMode.LI_FUKUSHIMA, s, s, 1e-6) is s  # no regularization: no object
        assert built(before) == (0, 0)
        params = schedule_params(s, z, PhiMode.BFGS, 0.5)
        before = built()
        broyden_direction(g, s, z, params)
        assert built(before) == (0, 1)
        before = built()
        cg_direction(g, 0.5, 1.0, s)
        assert built(before) == (0, 1)


def _step_eval():
    inst = rayleigh_instance(8, seed=2)
    x = inst.initial_point()
    return search(inst, x, -inst.grad(x), LineSearchConfig())


def _broyden_params():
    return BroydenParams(gamma=1.0, tau=1.0, phi=1.0, xi=1.0, ss=1.0, sz=2.0, zz=4.0)


class TestImmutable:
    def test_point_and_tangent_fields(self):
        x, eta, _ = _data(Sphere(4))
        for obj, fields in ((x, ("manifold", "ambient")), (eta, ("point", "ambient"))):
            for name in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, getattr(obj, name))

    def test_step_records(self):
        for record in (_step_eval(), _broyden_params()):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))

    def test_field_names_and_order(self):
        assert StepEval._fields == ("alpha", "x_new", "f_new", "g_new", "t_eta", "t_g", "dphi")
        assert BroydenParams._fields == ("gamma", "tau", "phi", "xi", "ss", "sz", "zz")
        ev = _step_eval()
        assert StepEval(**ev._asdict()) == ev


class _Sub(np.ndarray):
    """An ndarray subclass, which the checks coerce to a plain ndarray."""


def _basis(manifold):
    """An integer-valued point of ``manifold``: exact in every input dtype."""
    if isinstance(manifold, Sphere):
        return np.eye(manifold.n)[0]
    return np.eye(manifold.n, manifold.p)


FORMS = ("list", "int", "float32", "subclass", "view", "fortran")


def _inputs(values):
    """``values`` in each of the ``FORMS`` a caller may pass: name -> (input, the writable
    array it is a view of, or None)."""
    base = np.zeros(tuple(d + 1 for d in values.shape))
    view = base[tuple(slice(0, d) for d in values.shape)]
    view[...] = values
    return {
        "list": (values.tolist(), None),
        "int": (values.astype(np.int64), None),
        "float32": (values.astype(np.float32), None),
        "subclass": (np.array(values).view(_Sub), None),
        "view": (view, base),
        "fortran": (np.array(values, order="F"), None),
    }


class TestChecksKept:
    def test_wrong_shape(self):
        x = Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidPointError, match="expected ambient shape"):
            Point(Sphere(3), np.array([1.0, 0.0]))
        with pytest.raises(InvalidPointError, match="expected ambient shape"):
            Tangent(x, np.zeros(4))
        with pytest.raises(InvalidPointError, match="expected ambient shape"):
            Point(Oblique(3, 2), np.eye(3)[:, :1])

    def test_off_manifold(self):
        with pytest.raises(InvalidPointError, match="violates the manifold constraint"):
            Point(Sphere(2), np.array([1.0, 1.0]))
        with pytest.raises(InvalidPointError, match="violates the manifold constraint"):
            Point(Oblique(2, 2), np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_int_array_is_coerced(self):
        ints = np.array([0, 1, 0])
        x = Point(Sphere(3), ints)
        t = Tangent(x, np.array([1, 0, 0]))
        for arr in (x.ambient, t.ambient):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        assert x.ambient is not ints and ints.flags.writeable
        assert Point(Oblique(2, 2), [[1, 0], [0, 1]]).ambient.dtype == np.float64

    def test_replace_rechecks(self):
        x = Point(Sphere(2), np.array([1.0, 0.0]))
        moved = dataclasses.replace(x, ambient=np.array([0, 1]))
        assert moved.ambient.dtype == np.float64 and not moved.ambient.flags.writeable
        with pytest.raises(InvalidPointError):
            dataclasses.replace(x, ambient=np.array([2.0, 0.0]))

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    @pytest.mark.parametrize("form", FORMS)
    def test_stored_as_frozen_float64(self, manifold, form, built):
        x = Point(manifold, _basis(manifold))
        shape = manifold.ambient_shape
        tangent_values = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        for cls, base, values in ((Point, manifold, _basis(manifold)),
                                  (Tangent, x, tangent_values)):
            given, owner = _inputs(values)[form]
            before = built()
            obj = cls(base, given)
            assert built(before) == ((1, 0) if cls is Point else (0, 1))
            arr = obj.ambient
            assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.shape == shape
            assert not arr.flags.writeable and arr.base is None
            assert np.array_equal(arr, values)
            if form == "fortran":  # an owned float64 array is frozen in place
                assert arr is given
            if owner is not None:  # a view is copied: its base stays writable and apart
                owner[(0,) * owner.ndim] += 5.0
                assert np.array_equal(arr, values)

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    def test_rejected_point_leaves_the_array_writable(self, manifold, built):
        off = 2.0 * _basis(manifold)
        wrong_shape = np.zeros(tuple(d + 1 for d in manifold.ambient_shape))
        for arr, message in ((off, "violates the manifold constraint"),
                             (wrong_shape, "expected ambient shape")):
            before = built()
            with pytest.raises(InvalidPointError, match=message):
                Point(manifold, arr)
            assert built(before) == (1, 0)
            assert arr.flags.writeable

    # the base checks test identity first; an equal but distinct point still passes
    # the equality check and a different point still raises

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    def test_inner_base(self, manifold):
        x, u, v = _data(manifold)
        twin = Point(manifold, x.ambient.copy())
        other, *_ = _data(manifold, seed=2)
        assert inner(twin, u, v) == inner(x, u, v)
        for args, name in (((other, u, v), "u"), ((x, u, Tangent(other, v.ambient)), "v")):
            with pytest.raises(ContractViolationError, match=f"{name} is not based"):
                inner(*args)

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    def test_retract_base(self, manifold):
        x, eta, _ = _data(manifold)
        twin = Point(type(manifold)(*manifold.ambient_shape), x.ambient.copy())
        other, *_ = _data(manifold, seed=2)
        assert retract(twin, eta, 0.5).ambient.tobytes() == retract(x, eta, 0.5).ambient.tobytes()
        with pytest.raises(ContractViolationError, match="eta is not based"):
            retract(other, eta, 0.5)

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    @pytest.mark.parametrize("kind", list(TransportKind), ids=lambda k: k.name)
    def test_transport_direction_base(self, manifold, kind):
        x, eta, g = _data(manifold)
        twin = Point(manifold, x.ambient.copy())
        other, *_ = _data(manifold, seed=2)
        x_new = retract(x, eta, 0.25)
        # x_new on an equal manifold object, not x's own: its array is checked again
        new_twin = Point(type(manifold)(*manifold.ambient_shape), x_new.ambient)
        want = [t.ambient.tobytes() for t in transport_direction(kind, x, eta, 0.25, g, x_new)]
        for base, target in ((twin, x_new), (x, new_twin)):
            got = transport_direction(kind, base, eta, 0.25, g, target)
            assert [t.ambient.tobytes() for t in got] == want
        for args, name in (((other, eta, 0.25, g), "eta"),
                           ((x, eta, 0.25, Tangent(other, g.ambient)), "g")):
            with pytest.raises(ContractViolationError, match=f"{name} is not based"):
                transport_direction(kind, *args, x_new)
        bigger = random_point(type(manifold)(*(d + 1 for d in manifold.ambient_shape)),
                              SplitMix64(5))
        with pytest.raises(InvalidPointError, match="expected ambient shape"):
            transport_direction(kind, x, eta, 0.25, g, bigger)

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    def test_broyden_direction_base(self, manifold):
        # <s, g> and <z, g> are taken in broyden_direction's frame, with the base
        # checks and the error that inner(g.point, ., g) makes
        x, s, g = _data(manifold)
        z = Tangent(x, g.ambient + 2.0 * s.ambient)
        params = schedule_params(s, z, PhiMode.BFGS, 0.5)
        want = broyden_direction(g, s, z, params).ambient.tobytes()
        twin = Point(manifold, x.ambient.copy())
        assert broyden_direction(Tangent(twin, g.ambient), s, z, params).ambient.tobytes() == want
        other, *_ = _data(manifold, seed=2)
        s_off, z_off = Tangent(other, s.ambient), Tangent(other, z.ambient)
        with pytest.raises(ContractViolationError) as ref:
            inner(x, s_off, g)
        for args in ((s_off, z), (s, z_off)):
            with pytest.raises(ContractViolationError) as got:
                broyden_direction(g, *args, params)
            assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    def test_cg_direction_base(self, manifold):
        # T(eta_prev) is checked against g's point, identity first
        x, t_eta, g = _data(manifold)
        want = cg_direction(g, 0.5, 0.75, t_eta).ambient.tobytes()
        twin = Point(manifold, x.ambient.copy())
        assert cg_direction(g, 0.5, 0.75, Tangent(twin, t_eta.ambient)).ambient.tobytes() == want
        other, *_ = _data(manifold, seed=2)
        with pytest.raises(ContractViolationError, match="t_eta_prev is not based at the given"):
            cg_direction(g, 0.5, 0.75, Tangent(other, t_eta.ambient))

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    @pytest.mark.parametrize("kind", [k for k in DirectionKind if k is not DirectionKind.BROYDEN],
                             ids=lambda k: k.value)
    def test_cg_beta_base(self, manifold, kind):
        # T(g_prev) is checked against g's point, identity first
        x, t_g, g = _data(manifold)
        args = (0.5, 2.0, -1.5, 0.75)
        want = cg_beta(kind, g, t_g, *args)
        twin = Point(manifold, x.ambient.copy())
        assert cg_beta(kind, g, Tangent(twin, t_g.ambient), *args).hex() == want.hex()
        other, *_ = _data(manifold, seed=2)
        with pytest.raises(ContractViolationError, match="t_g is not based at the given"):
            cg_beta(kind, g, Tangent(other, t_g.ambient), *args)

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    def test_schedule_params_base(self, manifold):
        # <s, z> taken in schedule_params' frame checks z's base as inner(s.point, s, z)
        x, s, g = _data(manifold)
        z = Tangent(x, g.ambient + 2.0 * s.ambient)
        want = schedule_params(s, z, PhiMode.BFGS, 0.5)
        twin = Point(manifold, x.ambient.copy())
        assert schedule_params(s, Tangent(twin, z.ambient), PhiMode.BFGS, 0.5) == want
        other, *_ = _data(manifold, seed=2)
        moved = Tangent(other, z.ambient)
        with pytest.raises(ContractViolationError) as ref:
            inner(x, s, moved)
        with pytest.raises(ContractViolationError) as got:
            schedule_params(s, moved, PhiMode.BFGS, 0.5)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("make", [lambda: rayleigh_instance(6, seed=4),
                                      lambda: offdiag_instance(5, 3, 2, seed=4)],
                             ids=["rayleigh", "offdiag"])
    def test_problem_point_check(self, make):
        # cost and grad skip the manifold check for the instance's own manifold object only
        inst = make()
        m = inst.manifold
        x = inst.initial_point()
        twin = Point(type(m)(*m.ambient_shape), x.ambient)
        assert twin.manifold is not m
        assert inst.cost(twin) == make().cost(x)
        assert inst.grad(twin).ambient.tobytes() == make().grad(x).ambient.tobytes()
        other = random_point(type(m)(*(d + 1 for d in m.ambient_shape)), SplitMix64(1))
        for method in (inst.cost, inst.grad):
            with pytest.raises(ContractViolationError, match="dimension mismatch"):
                method(other)
