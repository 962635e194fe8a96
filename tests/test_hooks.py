"""The attributes the benchmark's tracer and gate patch or read.

The benchmark instruments riemqn from outside: it replaces module attributes
and class attributes through each owner's own ``__dict__``, and reads a few
instance attributes.  A refactor that moves one of them (to a base class, or
under another name) fails here instead of in a traced benchmark run.
"""

import inspect

import pytest

import riemqn
from riemqn import bench, linesearch, manifolds, problems, profiles, rng, solver

INSTANCE_CLASSES = [problems.RayleighInstance, problems.OffDiagonalInstance]
TANGENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__")


def _own_function(owner, name):
    assert name in owner.__dict__, f"{owner.__name__}.{name} is not defined on the class itself"
    assert callable(owner.__dict__[name])


# (module, name, defining layer): the tracer wraps each where the module looks
# it up and names its span after the defining layer.  The per-layer metrics
# read those span names, so an inlined or renamed function would read as 0 or
# nan there instead of failing.
TRACED_FUNCTIONS = [
    (bench, "solve", "solver"),
    (bench, "generate_instance", "problems"),
    (solver, "search_step", "linesearch"),
    *[(solver, name, "directions") for name in
      ("schedule_params", "broyden_direction", "compute_z", "cg_beta", "cg_direction")],
    *[(solver, name, "manifolds") for name in ("inner", "norm")],
    *[(linesearch, name, "manifolds") for name in ("retract", "transport_direction", "inner")],
    (problems, "project_tangent", "manifolds"),
    (bench, "performance_profile", "profiles"),
    # the bench layer's own stages, wrapped in place
    *[(bench, name, "bench") for name in ("run_benchmark", "write_runs_csv", "write_profiles")],
]


@pytest.mark.parametrize(
    "module,name,layer",
    TRACED_FUNCTIONS,
    ids=lambda v: v.__name__.rpartition(".")[2] if inspect.ismodule(v) else v,
)
def test_module_functions(module, name, layer):
    fn = vars(module)[name]
    assert inspect.isfunction(fn)
    assert fn.__module__ == f"riemqn.{layer}"


def test_layer_modules():
    for layer in ("rng", "problems", "manifolds", "directions", "linesearch", "solver",
                  "bench", "profiles"):
        assert inspect.ismodule(getattr(riemqn, layer))


@pytest.mark.parametrize("cls", INSTANCE_CLASSES, ids=lambda c: c.__name__)
def test_instance_methods_and_kind(cls):
    for name in ("cost", "grad", "initial_point"):
        _own_function(cls, name)
    assert cls.kind in problems.KINDS


def test_instances_carry_their_kind():
    ray = problems.rayleigh_instance(3, seed=1)
    off = problems.offdiag_instance(3, 2, 1, seed=1)
    assert (ray.kind, off.kind) == ("rayleigh", "offdiag")
    assert ray.matrix.shape == (3, 3) and type(ray.seed) is int


def test_tangent_and_point_hooks():
    for name in (*TANGENT_OPS, "__post_init__"):
        _own_function(manifolds.Tangent, name)
    _own_function(manifolds.Point, "__post_init__")


def test_rng_and_profile_hooks():
    _own_function(rng.SplitMix64, "normal")
    for name in ("value", "to_csv"):
        _own_function(profiles.ProfileTable, name)


def test_transport_kinds():
    names = {kind.name for kind in manifolds.TransportKind}
    assert {"DIFFERENTIATED_RETRACTION", "PROJECTION", "INVERSE_RETRACTION"} <= names


# (solver id, instance) -> (cost calls, grad calls) of one solve.  The benchmark's
# Probe counts evaluations through the class attributes and reads the final iterate
# from the last ``solver.search_step`` call, so a search that bypassed that global,
# or an evaluation that bypassed the class attributes, would show here.
PROBE_CASES = {
    ("broyden_bfgs_lf_xi0.1_dr", "rayleigh"): (184, 159),
    ("hz_dr", "rayleigh"): (275, 235),
    ("broyden_preconvex_powell_xi0.8_invret", "offdiag"): (371, 339),
    ("dy_proj", "offdiag"): (301, 297),
}
PROBE_INSTANCES = {
    "rayleigh": lambda: problems.rayleigh_instance(100, 20250),
    "offdiag": lambda: problems.offdiag_instance(10, 5, 5, 30500),
}


@pytest.mark.parametrize("sid,kind", list(PROBE_CASES), ids=lambda v: v)
def test_probe_contract(sid, kind, monkeypatch):
    problem = PROBE_INSTANCES[kind]()
    counts = {"cost": 0, "grad": 0, "search": 0}
    last_x = [None]

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for cls in INSTANCE_CLASSES:
        for name in ("cost", "grad"):
            monkeypatch.setattr(cls, name, counting(name, cls.__dict__[name]))
    real_search = solver.search_step

    def capturing_search(*args, **kwargs):
        counts["search"] += 1
        ev = real_search(*args, **kwargs)
        last_x[0] = ev.x_new
        return ev

    monkeypatch.setattr(solver, "search_step", capturing_search)
    res = solver.solve(problem, problem.initial_point(), solver.config_from_id(sid))
    evaluations = counts["cost"], counts["grad"]
    assert counts["search"] == len(res.diagnostics.gnorm) > 0
    x = last_x[0]
    assert isinstance(x, manifolds.Point) and x.manifold == problem.manifold
    assert problem.cost(x) == res.final_f
    assert evaluations == PROBE_CASES[sid, kind]
