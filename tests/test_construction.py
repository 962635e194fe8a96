"""How Point, Tangent and the step records are built.

``Point`` and ``Tangent`` run their checks in ``__post_init__``, looked up on
the class: the benchmark counts constructions by replacing that attribute in
the class ``__dict__``, so every construction must go through it.  The step
records (``StepEval``, ``BroydenParams``) are immutable.
``TestChecksKept`` holds every check of that one frame: coercion, shape,
the constraint (before freezing), copy-if-view and freezing.  Tangent data is
an ambient array at every riemqn boundary, so no riemqn function builds a
``Tangent`` (``TestNoTangentBuilt``); ``retract`` builds the one ``Point`` a
trial step needs.  ``TestInputsNotWritten`` checks that the functions of the
solver's loop write none of the plain arrays they are handed.  Each value
checks its own construction arguments (``test_arguments_checked``), and the
values that hold arrays compare and hash by identity (``test_identity_equality``).
"""

import dataclasses

import numpy as np
import pytest

from riemqn import (
    BroydenParams,
    ConfigError,
    ContractViolationError,
    DirectionKind,
    InvalidPointError,
    IterationTrace,
    LineSearchConfig,
    Oblique,
    OffDiagonalInstance,
    PhiMode,
    Point,
    RayleighInstance,
    SolverConfig,
    Sphere,
    SplitMix64,
    StepEval,
    Tangent,
    TransportKind,
    ZMode,
    broyden_direction,
    compute_z,
    config_from_id,
    offdiag_instance,
    performance_profile,
    project_tangent,
    random_point,
    random_tangent,
    rayleigh_instance,
    retract,
    schedule_params,
    solve,
    transport_direction,
    wolfe_check,
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
        Tangent(x, np.array(eta))
        Tangent(point=x, ambient=eta)
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
        project_tangent(x, eta)
        assert built(before) == (0, 0)

    @pytest.mark.parametrize("kind", list(TransportKind), ids=lambda k: k.name)
    def test_transport(self, manifold, kind, built):
        x, eta, g = _data(manifold)
        x_new = retract(x, eta, 0.25)
        before = built()
        outs = transport_direction(kind, x, eta, 0.25, g, x_new)
        assert built(before) == (0, 0)
        assert len({id(t) for t in outs}) == 2
        assert all(type(t) is np.ndarray for t in outs)

    def test_directions(self, manifold, built):
        # the engines take and return arrays and build nothing
        x, s, g = _data(manifold)
        y = -s  # <s, y> < 0: Li-Fukushima lifts it
        before = built()
        z = compute_z(ZMode.LI_FUKUSHIMA, s, y, 1e-6)
        assert z is not y
        assert compute_z(ZMode.LI_FUKUSHIMA, s, s, 1e-6) is s  # no regularization: no array
        params = schedule_params(s, z, PhiMode.BFGS, 0.5)
        outs = [z, broyden_direction(g, s, z, params), cg_direction(g, 0.5, s)]
        assert built(before) == (0, 0)
        assert all(type(t) is np.ndarray for t in outs)


@pytest.mark.parametrize("sid", ["broyden_bfgs_lf_xi0.1_dr", "hz_invret"])
@pytest.mark.parametrize("make", [lambda: rayleigh_instance(30, seed=5),
                                  lambda: offdiag_instance(6, 3, 3, seed=5)],
                         ids=["rayleigh", "offdiag"])
class TestNoTangentBuilt:
    """Tangent data is an ambient array at every riemqn boundary, so no call builds a
    ``Tangent``, counted as the benchmark counts them, and trace rows carry arrays."""

    def test_no_call_builds_a_tangent(self, make, sid, built):
        inst = make()
        x = inst.initial_point()
        cfg = config_from_id(sid, SolverConfig(max_iters=300, record_trace=True))
        rows = []
        before = built()
        res = solve(inst, x, cfg, callback=rows.append)
        assert built(before)[1] == 0
        g = inst.grad(x)
        assert built(before)[1] == 0
        ev = search(inst, x, -g, cfg.line_search, cfg.transport)  # search_step's entry
        wolfe_check(inst, x, -g, ev.alpha, cfg.line_search, cfg.transport)
        project_tangent(x, 2.0 * g)
        random_tangent(x, SplitMix64(3), unit=True)
        assert built(before)[1] == 0
        assert rows == res.trace and res.iters > 5

    def test_trace_rows_carry_read_only_arrays(self, make, sid):
        inst = make()
        cfg = config_from_id(sid, SolverConfig(max_iters=300, record_trace=True))
        res = solve(inst, inst.initial_point(), cfg)
        for row in res.trace[:-1]:
            d = row.direction
            assert type(d) is np.ndarray and d.dtype == np.float64
            assert d.shape == inst.manifold.ambient_shape and not d.flags.writeable
        assert res.trace[-1].direction is None


def _step_eval():
    inst = rayleigh_instance(8, seed=2)
    x = inst.initial_point()
    return search(inst, x, -inst.grad(x), LineSearchConfig())


def _broyden_params():
    return BroydenParams(gamma=1.0, tau=1.0, phi=1.0, xi=1.0, ss=1.0, sz=2.0, zz=4.0)


class TestImmutable:
    def test_point_and_tangent_fields(self):
        x, eta, _ = _data(Sphere(4))
        for obj, fields in ((x, ("manifold", "ambient")),
                            (Tangent(x, eta), ("point", "ambient"))):
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
        assert all(a is b for a, b in zip(StepEval(**ev._asdict()), ev))

    def test_step_eval_carries_arrays(self):
        ev = _step_eval()
        assert isinstance(ev.x_new, Point)
        for arr in (ev.g_new, ev.t_eta, ev.t_g):
            assert type(arr) is np.ndarray and arr.shape == ev.x_new.ambient.shape


def _call_unwritten(inputs, call):
    """``call()``, checking that it leaves every input array's bytes as they were."""
    before = [a.tobytes() for a in inputs]
    out = call()
    assert [a.tobytes() for a in inputs] == before
    return out


def _assert_fresh(outs, inputs):
    for out in outs:
        assert type(out) is np.ndarray
        assert not any(np.shares_memory(out, a) for a in inputs)


@pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
class TestInputsNotWritten:
    """The loop's arrays are plain and writeable (``random_tangent`` gives such arrays), so
    each function writes none of its inputs and returns arrays that share no memory with
    them."""

    def test_retract(self, manifold):
        x, eta, _ = _data(manifold)
        x_new = _call_unwritten([x.ambient, eta], lambda: retract(x, eta, 0.5))
        _assert_fresh([x_new.ambient], [x.ambient, eta])

    @pytest.mark.parametrize("kind", list(TransportKind), ids=lambda k: k.name)
    def test_transport_direction(self, manifold, kind):
        x, eta, g = _data(manifold)
        x_new = retract(x, eta, 0.25)
        inputs = [x.ambient, eta, g, x_new.ambient]
        t_eta, t_g = _call_unwritten(
            inputs, lambda: transport_direction(kind, x, eta, 0.25, g, x_new))
        _assert_fresh([t_eta], inputs)
        _assert_fresh([t_g], inputs + [t_eta])

    def test_compute_z(self, manifold):
        _, s, _ = _data(manifold)
        y = -s  # <s, y> < 0: both modes build z
        for mode, nu_hat in ((ZMode.LI_FUKUSHIMA, 1e-6), (ZMode.POWELL, 0.1)):
            z = _call_unwritten([s, y], lambda: compute_z(mode, s, y, nu_hat))
            _assert_fresh([z], [s, y])

    def test_schedule_params(self, manifold):
        _, s, g = _data(manifold)
        z = g + 2.0 * s
        params = _call_unwritten([s, z], lambda: schedule_params(s, z, PhiMode.PRECONVEX, 0.5))
        assert params.sz > 0.0

    def test_broyden_direction(self, manifold):
        _, s, g = _data(manifold)
        z = g + 2.0 * s
        params = schedule_params(s, z, PhiMode.BFGS, 0.5)
        eta = _call_unwritten([g, s, z], lambda: broyden_direction(g, s, z, params))
        _assert_fresh([eta], [g, s, z])

    def test_cg_beta(self, manifold):
        _, t_g, g = _data(manifold)
        for kind in (k for k in DirectionKind if k is not DirectionKind.BROYDEN):
            beta = _call_unwritten([g, t_g], lambda: cg_beta(kind, g, t_g, 0.5, 2.0, -1.5))
            assert beta is not None

    def test_cg_direction(self, manifold):
        _, t_eta, g = _data(manifold)
        for beta in (0.0, 0.5):
            eta = _call_unwritten([g, t_eta], lambda: cg_direction(g, beta, t_eta))
            _assert_fresh([eta], [g, t_eta])


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

    def test_replace_rechecks_a_tangent(self, built):
        # the generated __init__ calls the class-level __post_init__ once per construction
        x = Point(Sphere(3), np.array([1.0, 0.0, 0.0]))
        t = Tangent(x, np.array([0.0, 1.0, 0.0]))
        base = np.zeros(4)
        before = built()
        moved = dataclasses.replace(t, ambient=base[:3])  # a view: copied
        assert built(before) == (0, 1)
        assert moved.point is x and moved.ambient.base is None
        assert moved.ambient.dtype == np.float64 and not moved.ambient.flags.writeable
        assert base.flags.writeable
        with pytest.raises(InvalidPointError, match="expected ambient shape"):
            dataclasses.replace(t, ambient=np.zeros(4))
        assert built(before) == (0, 2)

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

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=str)
    @pytest.mark.parametrize("kind", list(TransportKind), ids=lambda k: k.name)
    def test_transport_direction_base(self, manifold, kind):
        # an x_new on an equal manifold object, not x's own, has its array checked again
        x, eta, g = _data(manifold)
        x_new = retract(x, eta, 0.25)
        new_twin = Point(type(manifold)(*manifold.ambient_shape), x_new.ambient)
        want = [t.tobytes() for t in transport_direction(kind, x, eta, 0.25, g, x_new)]
        got = transport_direction(kind, x, eta, 0.25, g, new_twin)
        assert [t.tobytes() for t in got] == want
        bigger = random_point(type(manifold)(*(d + 1 for d in manifold.ambient_shape)),
                              SplitMix64(5))
        with pytest.raises(InvalidPointError, match="expected ambient shape"):
            transport_direction(kind, x, eta, 0.25, g, bigger)

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
        assert inst.grad(twin).tobytes() == make().grad(x).tobytes()
        other = random_point(type(m)(*(d + 1 for d in m.ambient_shape)), SplitMix64(1))
        for method in (inst.cost, inst.grad):
            with pytest.raises(ContractViolationError, match="dimension mismatch"):
                method(other)


@pytest.mark.parametrize("build,message", [
    (lambda: Sphere(-2), "n must be at least 1, got -2"),
    (lambda: Sphere(2.5), "n must be an integer, got 2.5"),
    (lambda: Oblique(3, 0), "p must be at least 1, got 0"),
    (lambda: Oblique(True, 2), "n must be an integer, got True"),
    (lambda: OffDiagonalInstance(matrices=(np.eye(3),), x0=np.zeros((3, 0)), seed=0),
     "p must be at least 1, got 0"),
    (lambda: SplitMix64(2.5), "seed must be an integer, got 2.5"),
    (lambda: RayleighInstance(matrix=np.eye(2), x0=np.array([1.0, 0.0]), seed="abc"),
     "seed must be an integer, got 'abc'"),
    (lambda: OffDiagonalInstance(matrices=(np.eye(2),), x0=np.eye(2), seed=1.0),
     "seed must be an integer, got 1.0"),
], ids=["sphere-negative", "sphere-float", "oblique-zero", "oblique-bool", "offdiag-no-columns",
        "rng-float", "rayleigh-seed", "offdiag-seed"])
def test_arguments_checked(build, message):
    """Each value checks its own construction arguments with the config checks."""
    with pytest.raises(ConfigError, match=f"^{message}$"):
        build()


def test_checked_arguments_are_stored_as_python_ints():
    assert type(Sphere(np.int64(3)).n) is int
    assert Oblique(np.int32(3), 2).ambient_shape == (3, 2)
    inst = RayleighInstance(matrix=np.eye(2), x0=np.array([1.0, 0.0]), seed=np.uint8(7))
    assert type(inst.seed) is int and inst.seed == 7
    assert np.array_equal(SplitMix64(np.int64(-1)).uint64(2), SplitMix64(2**64 - 1).uint64(2))


def _trace_rows():
    """Two rows at one point with equal scalars and equal but distinct direction arrays."""
    x = Point(Sphere(2), np.array([1.0, 0.0]))
    return tuple(IterationTrace(iteration=0, f=1.0, gnorm=2.0, alpha=0.5, g_dot_eta=-4.0,
                                time_ms=0.0, point=x, direction=np.array([0.0, 1.0]))
                 for _ in range(2))


@pytest.mark.parametrize("make", [
    lambda: (rayleigh_instance(3, 1), rayleigh_instance(3, 1)),
    lambda: (offdiag_instance(3, 2, 2, 1), offdiag_instance(3, 2, 2, 1)),
    lambda: tuple(performance_profile({"p1": {"a": 1.0, "b": 2.0}, "p2": {"a": 3.0, "b": 1.5}})
                  for _ in range(2)),
    _trace_rows,
], ids=["rayleigh", "offdiag", "profile-table", "trace-row"])
def test_identity_equality(make):
    """Equal data in two objects: each object equals only itself, and hashes."""
    a, b = make()
    assert a == a and not a != a
    assert not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert a in [b, a] and a not in [b]
