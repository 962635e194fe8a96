import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import sys
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riemqn import (
    ConfigError,
    ContractViolationError,
    DirectionKind,
    FailureReason,
    LineSearchConfig,
    OffDiagonalInstance,
    PhiMode,
    Point,
    RayleighInstance,
    RunDiagnostics,
    RunResult,
    SolverConfig,
    Sphere,
    SplitMix64,
    TransportKind,
    ZMode,
    config_from_id,
    generate_instance,
    norm,
    offdiag_instance,
    random_point,
    rayleigh_instance,
    solve,
    solver_id,
    wolfe_check,
)

import riemqn
from riemqn import linesearch as linesearch_mod
from riemqn import solver as solver_mod

from _support import PROPERTY_IDS, jacobi_eigenvalues, reference_cg_beta


class TestStoppingRule:
    """solve stops when the gradient norm is strictly below tol."""

    def _start(self):
        inst = rayleigh_instance(8, seed=3)
        x0 = inst.initial_point()
        return inst, x0, norm(inst.grad(x0))

    def test_tol_equal_to_the_gradient_norm_does_not_stop(self):
        inst, x0, g0 = self._start()
        res = solve(inst, x0, SolverConfig(tol=g0, max_iters=1))
        assert res.iters == 1

    def test_tol_just_above_the_gradient_norm_stops_at_once(self):
        inst, x0, g0 = self._start()
        res = solve(inst, x0, SolverConfig(tol=float(np.nextafter(g0, np.inf))))
        assert res.converged
        assert res.iters == 0
        assert res.final_gnorm == g0

    def test_zero_gradient_stops_at_once(self):
        inst = rayleigh_instance(2, seed=1)
        object.__setattr__(inst, "matrix", np.diag([1.0, 2.0]))
        res = solve(inst, Point(Sphere(2), np.array([1.0, 0.0])), SolverConfig(tol=1e-300))
        assert res.converged and res.iters == 0 and res.final_gnorm == 0.0


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(tol=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(max_iters=0)
        with pytest.raises(ConfigError):
            SolverConfig(xi=1.5)

    def test_default_nu_hat_follows_z_mode(self):
        assert SolverConfig(z_mode=ZMode.LI_FUKUSHIMA).resolved_nu_hat() == 1e-6
        assert SolverConfig(z_mode=ZMode.POWELL).resolved_nu_hat() == 0.1

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            SolverConfig.from_dict({"stepper": "newton"})
        with pytest.raises(ConfigError):
            SolverConfig.from_dict({"line_search": {"c3": 1.0}})

    def test_solver_id_roundtrip(self):
        for cfg in (
            SolverConfig(xi=0.1),
            SolverConfig(xi=0.8, phi_mode=PhiMode.PRECONVEX, z_mode=ZMode.POWELL),
            SolverConfig(direction=DirectionKind.DY),
            SolverConfig(direction=DirectionKind.HZ, transport=TransportKind.INVERSE_RETRACTION),
        ):
            sid = solver_id(cfg)
            again = config_from_id(sid, base=cfg)
            assert solver_id(again) == sid

    def test_solver_id_format(self):
        cfg = SolverConfig(xi=0.8, phi_mode=PhiMode.BFGS, z_mode=ZMode.LI_FUKUSHIMA)
        assert solver_id(cfg) == "broyden_bfgs_lf_xi0.8_dr"
        assert solver_id(SolverConfig(direction=DirectionKind.DY)) == "dy_dr"
        cfg = SolverConfig(xi=0.1, phi_mode=PhiMode.PRECONVEX_RECIPROCAL)
        assert solver_id(cfg) == "broyden_preconvexrecip_lf_xi0.1_dr"
        assert solver_id(SolverConfig(xi=-0.0)) == "broyden_bfgs_lf_xi0_dr"

    @settings(max_examples=200, deadline=None)
    @given(xi=st.floats(-0.0, 1.0))
    @example(xi=-0.0)
    @example(xi=5e-324)  # the least subnormal
    @example(xi=2.225073858507201e-308)  # the largest subnormal
    @example(xi=0.1234567891)  # %g keeps six digits, which do not read back
    @example(xi=math.nextafter(0.1, 1.0))
    def test_solver_id_roundtrips_xi(self, xi):
        # an id reads back to its exact xi, and is the one spelling of its config
        base = SolverConfig(phi_mode=PhiMode.PRECONVEX, z_mode=ZMode.POWELL, tol=1e-7,
                            transport=TransportKind.PROJECTION, max_iters=50,
                            line_search=LineSearchConfig(c1=1e-3, max_evals=40))
        cfg = dataclasses.replace(base, xi=xi)
        sid = solver_id(cfg)
        assert sid.count("_") == 4
        again = config_from_id(sid, base)
        assert again == cfg
        assert solver_id(again) == sid

    @pytest.mark.parametrize("code", ["0.10", "1e-1", ".1", "+0.1", " 0.1", "-0", "0.1000000"])
    def test_id_accepted_only_as_solver_id_writes_it(self, code):
        sid = f"broyden_bfgs_lf_xi{code}_dr"
        canonical = "broyden_bfgs_lf_xi0_dr" if code == "-0" else "broyden_bfgs_lf_xi0.1_dr"
        with pytest.raises(ConfigError) as exc:
            config_from_id(sid)
        assert str(exc.value) == f"solver id {sid!r} is written {canonical!r}"

    def test_cg_id_names_its_transport(self):
        cfg = config_from_id("hz_dr")
        assert cfg.direction is DirectionKind.HZ
        assert cfg.transport is TransportKind.DIFFERENTIATED_RETRACTION
        with pytest.raises(ConfigError, match="malformed solver id: 'hz'"):
            config_from_id("hz")

    def test_bad_ids_rejected(self):
        for sid in ("newton", "broyden_bfgs_lf_dr", "broyden_bfgs_lf_xi0.1_warp", "dy_dr_x"):
            with pytest.raises(ConfigError):
                config_from_id(sid)

    @pytest.mark.parametrize("sid,code", [("broyden_bfx_lf_xi0.1_dr", "bfx"),
                                          ("broyden_bfgs_lff_xi0.1_dr", "lff"),
                                          ("broyden_bfgs_lf_xi2_dr", "xi"),
                                          ("hz_warp", "warp"),
                                          ("hz_None", "transport must be one of"),
                                          ("broyden_bfgs_1_xi0.1_dr", "z_mode must be one of"),
                                          ("HZ_dr", "direction must be one of"),
                                          ("broyden_bfgs_lf_xiNone_dr", "bad xi"),
                                          ("broyden_bfgs_lf_xinan_dr", "xi must be a number")])
    def test_id_errors_name_the_id(self, sid, code):
        with pytest.raises(ConfigError, match=rf"{code}.* in solver id '{sid}'$"):
            config_from_id(sid)


class TestReciprocalPreconvex:
    """``preconvexrecip`` is the preconvex rule on 1 / mu, under an id of its own."""

    # sha256 over 72 runs of iters, final f, final |g|, failure reason, the ten
    # RunDiagnostics series and restarts: Rayleigh n=30 and offdiag 6x3x2, seeds 0-5,
    # lf and powell, each transport, xi 0.1.  Recorded when this reading was a boolean
    # setting beside phi_mode = preconvex, before it became a phi_mode of its own.
    DIGEST = "2b3a50241be7aee7832b7b5bde552cd9a6515fc4ef2090cca3d588fd58e5ee2d"

    def test_runs_pinned(self):
        digest, iters = hashlib.sha256(), 0
        for kind, dims in (("rayleigh", {"n": 30}), ("offdiag", {"n": 6, "p": 3, "N": 2})):
            for seed in range(6):
                inst = generate_instance(kind, dims, seed)
                for z, t in itertools.product(("lf", "powell"), ("dr", "proj", "invret")):
                    cfg = config_from_id(f"broyden_preconvexrecip_{z}_xi0.1_{t}")
                    res = solve(inst, inst.initial_point(), cfg)
                    d, iters = res.diagnostics, iters + res.iters
                    reason = res.failure_reason.value if res.failure_reason else None
                    digest.update(
                        (f"{res.iters};{res.final_f!r};{res.final_gnorm!r};{reason};"
                         + "".join(f"{n}={list(getattr(d, n))};" for n in RunDiagnostics.SERIES)
                         + f"restarts={d.restarts};").encode())
        assert iters == 2828
        assert digest.hexdigest() == self.DIGEST

    def test_property_ids_cover_every_phi_mode(self):
        assert len(PROPERTY_IDS) == 51
        assert {sid.split("_")[1] for sid in PROPERTY_IDS if sid.startswith("broyden")} == {
            phi.value for phi in PhiMode}


# The 14 solver ids of the Rayleigh benchmark workloads and the 15 of the
# offdiag one; the two lists share five ids.
RAYLEIGH_BENCH_IDS = (
    "broyden_bfgs_lf_xi1_dr",
    "broyden_bfgs_lf_xi0.8_dr",
    "broyden_bfgs_lf_xi0.1_dr",
    "broyden_preconvex_lf_xi1_dr",
    "broyden_preconvex_lf_xi0.8_dr",
    "broyden_preconvex_lf_xi0.1_dr",
    "broyden_bfgs_powell_xi1_dr",
    "broyden_bfgs_powell_xi0.8_dr",
    "broyden_bfgs_powell_xi0.1_dr",
    "broyden_preconvex_powell_xi1_dr",
    "broyden_preconvex_powell_xi0.8_dr",
    "broyden_preconvex_powell_xi0.1_dr",
    "dy_dr",
    "hz_dr",
)
OFFDIAG_BENCH_IDS = (
    "broyden_bfgs_lf_xi0.1_dr",
    "broyden_bfgs_lf_xi0.1_proj",
    "broyden_bfgs_lf_xi0.1_invret",
    "broyden_bfgs_lf_xi1_dr",
    "broyden_bfgs_lf_xi1_proj",
    "broyden_bfgs_lf_xi1_invret",
    "broyden_preconvex_powell_xi0.8_dr",
    "broyden_preconvex_powell_xi0.8_proj",
    "broyden_preconvex_powell_xi0.8_invret",
    "dy_dr",
    "dy_proj",
    "dy_invret",
    "hz_dr",
    "hz_proj",
    "hz_invret",
)
BENCH_IDS = sorted(set(RAYLEIGH_BENCH_IDS) | set(OFFDIAG_BENCH_IDS))

ENUM_FIELDS = {
    "direction": DirectionKind,
    "transport": TransportKind,
    "phi_mode": PhiMode,
    "z_mode": ZMode,
}


class TestStrictConfig:
    """Config values are checked, never coerced."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SolverConfig(max_iters=2.5),
            lambda: SolverConfig(max_iters=10.0),
            lambda: SolverConfig(max_iters=True),
            lambda: SolverConfig(record_trace="no"),
            lambda: SolverConfig(record_trace=1),
            lambda: SolverConfig(record_trace=None),
            lambda: SolverConfig(xi=True),
            lambda: SolverConfig(xi=float("nan")),
            lambda: SolverConfig(tol="1e-6"),
            lambda: SolverConfig(xi=None),
            lambda: SolverConfig(xi="0.1"),
            lambda: SolverConfig(direction="hz"),
            lambda: SolverConfig(transport=ZMode.POWELL),
            lambda: SolverConfig(phi_mode="bfgs"),
            lambda: SolverConfig(z_mode=None),
            lambda: SolverConfig(line_search={"c1": 1e-4}),
            lambda: LineSearchConfig(max_evals=3.5),
            lambda: LineSearchConfig(max_evals=False),
            lambda: LineSearchConfig(c1="1e-4"),
            lambda: LineSearchConfig(alpha_max=None),
        ],
        ids=[
            "max_iters_2.5", "max_iters_10.0", "max_iters_true", "record_trace_str",
            "record_trace_int", "record_trace_none", "xi_true", "xi_nan", "tol_str",
            "xi_none", "xi_str_0.1", "direction_str", "transport_zmode", "phi_mode_str",
            "z_mode_none", "line_search_dict", "max_evals_3.5", "max_evals_false", "c1_str",
            "alpha_max_none",
        ],
    )
    def test_directly_built_config_checked(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_directly_built_numbers_normalized(self):
        cfg = SolverConfig(xi=1, tol=np.float32(1e-3), max_iters=np.int64(7),
                           line_search=LineSearchConfig(max_evals=np.int32(40), alpha_max=10))
        assert type(cfg.xi) is float and type(cfg.tol) is float
        assert type(cfg.max_iters) is int and type(cfg.line_search.max_evals) is int
        assert cfg == SolverConfig(xi=1.0, tol=float(np.float32(1e-3)), max_iters=7,
                                   line_search=LineSearchConfig(max_evals=40, alpha_max=10.0))

    @pytest.mark.parametrize(
        "data",
        [
            {"max_iters": 2.7},
            {"max_iters": 10.0},
            {"max_iters": True},
            {"max_iters": "10"},
            {"max_iters": None},
            {"tol": True},
            {"record_trace": True},
            {"tol": None},
            {"tol": "1e-6"},
            {"line_search": {"max_evals": 2.5}},
            {"line_search": {"max_evals": 40.5}},
            {"line_search": {"max_evals": 2}},
            {"line_search": {"c1": "1e-4"}},
            {"line_search": {"c2": None}},
            {"line_search": [0.1, 0.9]},
            ["tol"],
        ],
        ids=repr,
    )
    def test_malformed_value_rejected(self, data):
        with pytest.raises(ConfigError):
            SolverConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [{"direction": "dy"}, {"direction": "HZ"}, {"transport": "dr"}, {"transport": "warp"},
         {"phi_mode": "bfgs"}, {"z_mode": 1}, {"xi": 0.5}, {"xi": None}],
        ids=repr,
    )
    def test_direction_keys_rejected(self, data):
        # the solver id is the one spelling of a direction; from_dict reads the shared settings
        (key,) = data
        with pytest.raises(ConfigError) as exc:
            SolverConfig.from_dict(data)
        assert str(exc.value) == (f"unknown solver config keys: ['{key}'] "
                                  "(accepted: line_search, max_iters, tol)")

    def test_infinite_alpha_init_rejected(self):
        # an infinite first trial step would end every run non_finite at
        # iteration 0; JSON reads 1e400 as inf
        with pytest.raises(ConfigError, match="alpha_init"):
            LineSearchConfig(alpha_init=math.inf, alpha_max=math.inf)
        data = json.loads('{"line_search": {"alpha_init": 1e400, "alpha_max": 1e400}}')
        assert data["line_search"]["alpha_init"] == math.inf
        with pytest.raises(ConfigError, match="alpha_init"):
            SolverConfig.from_dict(data)
        # an infinite alpha_max stays allowed: no cap on the doubling
        assert LineSearchConfig(alpha_max=math.inf).alpha_max == math.inf
        assert SolverConfig.from_dict(json.loads('{"line_search": {"alpha_max": 1e400}}'))

    @pytest.mark.parametrize(
        "data",
        [
            {"line_search": {"max_ls_evals": 40}},
            {"record_trace": False},
            {"nu_hat": 0.1},
            {"nu_hat": None},
            {"hz_mu": 2.0},
            {"preconvex_mu_reciprocal": True},
            {"preconvex_mu_reciprocal": False},
        ],
        ids=repr,
    )
    def test_removed_spellings_rejected(self, data):
        # each setting has one spelling: the enum value, the field name
        with pytest.raises(ConfigError):
            SolverConfig.from_dict(data)

    def test_unknown_keys_name_the_accepted_keys(self):
        with pytest.raises(ConfigError, match=r"unknown line_search keys: \['max_ls_evals'\] "
                                              r"\(accepted: alpha_init, alpha_max, c1, c2, "
                                              r"max_evals\)"):
            SolverConfig.from_dict({"line_search": {"max_ls_evals": 40}})
        accepted = ", ".join(sorted(solver_mod._SOLVER_KEYS))
        with pytest.raises(ConfigError, match=rf"\['record_trace'\] \(accepted: {accepted}\)"):
            SolverConfig.from_dict({"record_trace": True})

    @pytest.mark.parametrize("name", ["nu_hat", "hz_mu", "preconvex_mu_reciprocal"])
    def test_removed_fields_rejected(self, name):
        # built as from JSON (test_removed_spellings_rejected): nu_hat follows z_mode,
        # HZ's mu is 2, and the reciprocal mu is the phi_mode preconvexrecip
        value = {"nu_hat": 0.1, "hz_mu": 2.0, "preconvex_mu_reciprocal": True}[name]
        fields = ", ".join(sorted(f.name for f in dataclasses.fields(SolverConfig)))
        with pytest.raises(ConfigError, match=rf"\['{name}'\] \(accepted: {fields}\)"):
            SolverConfig(**{name: value})
        assert not hasattr(SolverConfig(), name)

    @pytest.mark.parametrize("key", sorted(solver_mod._SOLVER_KEYS))
    def test_no_key_accepts_null(self, key):
        with pytest.raises(ConfigError, match=key):
            SolverConfig.from_dict({key: None})

    def test_json_numbers_normalized(self):
        cfg = SolverConfig.from_dict(
            {"max_iters": np.int64(50), "line_search": {"max_evals": np.int32(40), "alpha_max": 10}}
        )
        xi = config_from_id("broyden_bfgs_lf_xi1_dr").xi
        assert type(xi) is float and xi == 1.0
        assert type(cfg.max_iters) is int and cfg.max_iters == 50
        assert cfg.line_search == LineSearchConfig(max_evals=40, alpha_max=10.0)

    def test_line_search_merges_with_base(self):
        base = SolverConfig(line_search=LineSearchConfig(c1=1e-3, max_evals=40))
        cfg = SolverConfig.from_dict({"line_search": {"c2": 0.5}}, base=base)
        assert cfg.line_search == LineSearchConfig(c1=1e-3, c2=0.5, max_evals=40)

    @pytest.mark.parametrize(
        "name,member",
        [(name, m) for name, enum in ENUM_FIELDS.items() for m in enum],
        ids=str,
    )
    def test_id_roundtrip_every_enum_member(self, name, member):
        # the id carries the member; tol, max_iters and line_search come from the base
        base = SolverConfig(tol=1e-7, max_iters=50,
                            line_search=LineSearchConfig(c1=1e-3, c2=0.5, max_evals=40))
        cfg = dataclasses.replace(base, **{name: member})
        assert config_from_id(solver_id(cfg), base) == cfg

    @pytest.mark.parametrize(
        "name,member",
        [(name, m) for name, enum in ENUM_FIELDS.items() for m in enum],
        ids=str,
    )
    def test_enum_value_is_the_id_code(self, name, member):
        sid = solver_id(SolverConfig(**{name: member}))
        assert member.value in sid.split("_")
        assert getattr(config_from_id(sid), name) is member

    @pytest.mark.parametrize("sid", ["hz_projection", "broyden_bfgs_lf_xi0.1_projection",
                                     "hz_differentiated_retraction", "hz_inverse_retraction",
                                     "broyden_bfgs_li_fukushima_xi0.1_dr", "broyden_dr",
                                     "broyden_bfgs_lf_xi_dr", "broyden_bfgs_lf_xi2_dr"])
    def test_ids_use_codes(self, sid):
        with pytest.raises(ConfigError):
            config_from_id(sid)

    def test_bench_ids_are_24_distinct_ids(self):
        assert len(BENCH_IDS) == 24

    @pytest.mark.parametrize("sid", BENCH_IDS)
    def test_bench_id_roundtrip(self, sid):
        cfg = config_from_id(sid)
        assert solver_id(cfg) == sid
        assert config_from_id(solver_id(cfg)) == cfg

    @pytest.mark.parametrize(
        "phi,z,xi,transport",
        list(itertools.product(PhiMode, ZMode, (1.0, 0.8, 0.1), TransportKind)),
        ids=str,
    )
    def test_broyden_config_id_roundtrip(self, phi, z, xi, transport):
        cfg = SolverConfig(phi_mode=phi, z_mode=z, xi=xi, transport=transport)
        assert config_from_id(solver_id(cfg)) == cfg

    @pytest.mark.parametrize("direction", [d for d in DirectionKind if d is not DirectionKind.BROYDEN])
    @pytest.mark.parametrize("transport", list(TransportKind))
    def test_cg_config_id_roundtrip(self, direction, transport):
        cfg = SolverConfig(direction=direction, transport=transport)
        assert config_from_id(solver_id(cfg)) == cfg


class TestSolve:
    def test_stationary_start_converges_immediately(self):
        inst = rayleigh_instance(6, seed=4)
        w = np.linalg.eigh(inst.matrix)[1][:, 0]
        x0 = Point(inst.manifold, w / np.linalg.norm(w))
        res = solve(inst, x0, SolverConfig(record_trace=True))
        assert res.converged is True
        assert res.iters == 0
        assert len(res.trace) == 1
        assert math.isnan(res.trace[0].alpha)

    def test_rayleigh_reaches_smallest_eigenvalue(self):
        inst = rayleigh_instance(20, seed=11)
        res = solve(inst, inst.initial_point(), SolverConfig(xi=0.1))
        assert res.converged
        lam = jacobi_eigenvalues(inst.matrix)[0]
        assert res.final_f - lam <= 1e-8 * (1.0 + abs(lam))
        assert res.final_gnorm < 1e-6

    def test_strictly_decreasing_objective(self):
        inst = offdiag_instance(6, 3, 3, seed=2)
        cfg = SolverConfig(xi=1.0, z_mode=ZMode.POWELL, record_trace=True)
        res = solve(inst, inst.initial_point(), cfg)
        f_series = np.array([row.f for row in res.trace])
        assert np.all(np.diff(f_series) < 0.0)

    def test_trace_length_and_rows(self):
        inst = rayleigh_instance(10, seed=5)
        res = solve(inst, inst.initial_point(), SolverConfig(record_trace=True))
        assert len(res.trace) == res.iters + 1
        for row in res.trace[:-1]:
            assert row.alpha > 0.0
            assert row.g_dot_eta < 0.0
        assert math.isnan(res.trace[-1].alpha)

    def test_wolfe_replay_on_trace(self):
        inst = rayleigh_instance(12, seed=8)
        cfg = SolverConfig(xi=0.1, record_trace=True)
        res = solve(inst, inst.initial_point(), cfg)
        for row in res.trace[:-1]:
            ok = wolfe_check(inst, row.point, row.direction, row.alpha,
                             cfg.line_search, cfg.transport)
            assert ok == (True, True)

    def test_max_iters_failure(self):
        inst = rayleigh_instance(40, seed=3)
        res = solve(inst, inst.initial_point(), SolverConfig(max_iters=2, record_trace=True))
        assert res.converged is False
        assert res.failure_reason is FailureReason.MAX_ITERS
        assert res.failure_detail == ""
        assert res.iters == 2
        assert len(res.trace) == 3

    def test_line_search_failure_recorded_not_raised(self):
        inst = rayleigh_instance(15, seed=7)
        cfg = SolverConfig(line_search=LineSearchConfig(max_evals=3, alpha_init=1e9, alpha_max=1e9))
        res = solve(inst, inst.initial_point(), cfg)
        assert res.converged is False
        assert res.failure_reason is FailureReason.LINE_SEARCH_FAILED

    @pytest.mark.parametrize("case", ["x0_array", "cfg_none", "cfg_dict", "problem_dict",
                                      "problem_point"])
    def test_argument_types_checked(self, case):
        # each argument is checked once, at the boundary, and the error names it
        inst = rayleigh_instance(5, seed=1)
        x0, cfg = inst.initial_point(), SolverConfig()
        args, name, type_name = {
            "x0_array": ((inst, inst.x0, cfg), "x0", "ndarray"),
            "cfg_none": ((inst, x0, None), "cfg", "NoneType"),
            "cfg_dict": ((inst, x0, {"xi": 0.5}), "cfg", "dict"),
            "problem_dict": (({"kind": "rayleigh"}, x0, cfg), "problem", "dict"),
            "problem_point": ((x0, x0, cfg), "problem", "Point"),
        }[case]
        with pytest.raises(ContractViolationError, match=rf"^{name} must be a .*, got {type_name}$"):
            solve(*args)

    def test_manifold_mismatch_rejected(self):
        inst = rayleigh_instance(5, seed=1)
        x = random_point(Sphere(6), SplitMix64(1))
        with pytest.raises(ContractViolationError):
            solve(inst, x, SolverConfig())

    def test_bit_for_bit_determinism(self):
        inst = offdiag_instance(8, 4, 3, seed=13)
        cfg = SolverConfig(xi=0.8, z_mode=ZMode.POWELL, record_trace=True)
        a = solve(inst, inst.initial_point(), cfg)
        b = solve(inst, inst.initial_point(), cfg)
        assert a.iters == b.iters
        assert a.final_f == b.final_f
        assert [r.f for r in a.trace] == [r.f for r in b.trace]
        assert [r.alpha for r in a.trace[:-1]] == [r.alpha for r in b.trace[:-1]]
        assert np.array_equal(a.trace[-1].point.ambient, b.trace[-1].point.ambient)

    def test_iterates_stay_on_manifold(self):
        inst = offdiag_instance(6, 2, 2, seed=21)
        res = solve(inst, inst.initial_point(), SolverConfig(xi=0.1, record_trace=True))
        for row in res.trace:
            assert inst.manifold.point_defect(row.point.ambient) <= 1e-12

    def test_descent_bookkeeping(self):
        inst = rayleigh_instance(25, seed=31)
        res = solve(inst, inst.initial_point(), SolverConfig(xi=1.0))
        d = res.diagnostics
        assert all(v < 0.0 for v in d.g_dot_eta)
        assert all(g >= 1.0 for g in d.gamma)
        assert all(0.0 < t <= 1.0 for t in d.tau)

    def test_diagnostics_count_line_searches_started(self):
        # the third line search fails: gnorm/g_dot_eta/eta_norm record it, alpha does not
        inst = rayleigh_instance(30, seed=3)
        cfg = SolverConfig(xi=0.1, line_search=LineSearchConfig(max_evals=3))
        res = solve(inst, inst.initial_point(), cfg)
        d = res.diagnostics
        assert res.failure_reason is FailureReason.LINE_SEARCH_FAILED
        assert res.failure_detail == "LineSearchFailedError: no Wolfe step within 3 evaluations"
        assert res.iters == 2
        assert (len(d.gnorm), len(d.g_dot_eta), len(d.eta_norm), len(d.alpha0)) == (3, 3, 3, 3)
        assert len(d.alpha) == 2

    def test_result_json_roundtrip(self):
        inst = rayleigh_instance(8, seed=41)
        res = solve(inst, inst.initial_point(), SolverConfig(record_trace=True))
        data = json.loads(res.to_json())
        assert data["converged"] is True
        assert res.failure_detail == "" and "failure_detail" not in data
        assert data["iters"] == res.iters
        assert len(data["trace"]) == res.iters + 1
        assert "point" not in data["trace"][0]

    def test_result_json_is_strict(self):
        # overflow ends the run non_finite with a nan gnorm; to_json writes it, and the
        # terminal trace row's nan alpha and g_dot_eta, as null, while to_dict keeps them
        inst = _scaled_instance("rayleigh", 7, 1e308)
        res = solve(inst, inst.initial_point(), config_from_id(
            "hz_dr", SolverConfig(record_trace=True)))
        assert res.failure_reason is FailureReason.NON_FINITE
        assert math.isnan(res.to_dict()["final_gnorm"])
        data = json.loads(res.to_json(), parse_constant=_reject_constant)
        assert data["final_gnorm"] is None and data["failure_reason"] == "non_finite"
        assert data["trace"][-1]["alpha"] is None and data["trace"][-1]["g_dot_eta"] is None
        assert data["iters"] == res.iters and data["final_f"] == res.final_f

    def test_callback_streams_all_rows(self):
        inst = rayleigh_instance(8, seed=42)
        rows = []
        res = solve(inst, inst.initial_point(), SolverConfig(), callback=rows.append)
        assert len(rows) == res.iters + 1
        assert rows[-1].gnorm == res.final_gnorm
        # rows carry the iterate and the direction without record_trace
        assert res.trace == []
        assert all(isinstance(row.point, Point) for row in rows)
        assert all(type(row.direction) is np.ndarray for row in rows[:-1])
        assert rows[-1].direction is None

    def test_callback_and_trace_get_the_same_rows(self):
        inst = rayleigh_instance(8, seed=42)
        rows = []
        res = solve(inst, inst.initial_point(), SolverConfig(record_trace=True),
                    callback=rows.append)
        assert len(rows) == len(res.trace) == res.iters + 1
        assert all(a is b for a, b in zip(rows, res.trace))


class TestCompactDiagnostics:
    """A returned run keeps each diagnostics series as an array of doubles."""

    @pytest.mark.parametrize("sid", ["broyden_bfgs_lf_xi0.1_dr", "dy_proj"])
    def test_every_series_is_a_double_array(self, sid):
        inst = rayleigh_instance(12, seed=5)
        d = solve(inst, inst.initial_point(), config_from_id(sid)).diagnostics
        for name in RunDiagnostics.SERIES:
            series = getattr(d, name)
            assert isinstance(series, array) and series.typecode == "d", name
        assert isinstance(d.restarts, int)
        assert {f.name for f in dataclasses.fields(d)} == {*RunDiagnostics.SERIES, "restarts"}

    def test_series_read_like_lists_and_view_as_numpy(self):
        inst = rayleigh_instance(12, seed=5)
        d = solve(inst, inst.initial_point(), config_from_id("broyden_bfgs_lf_xi0.1_dr")).diagnostics
        values = list(d.gamma)
        assert len(values) > 3 and all(type(v) is float for v in values)
        assert [d.gamma[i] for i in range(len(d.gamma))] == values == [v for v in d.gamma]
        assert list(d.gamma[1:3]) == values[1:3] and list(d.gamma[::-1]) == values[::-1]
        view = np.asarray(d.gnorm)
        assert view.dtype == np.float64 and view.tolist() == list(d.gnorm)
        view[0] = -1.0  # a view, not a copy
        assert d.gnorm[0] == -1.0

    def test_kept_results_retain_at_most_100_bytes_an_iteration(self):
        # ten series of Python floats in lists kept about 245 B an iteration here;
        # as arrays they keep 8 B a value plus each run's fixed overhead
        insts = [rayleigh_instance(100, seed) for seed in range(20)]
        cfg = config_from_id("broyden_bfgs_lf_xi0.1_dr")
        tracemalloc.start()
        try:
            kept = [solve(inst, inst.initial_point(), cfg) for inst in insts]
            iters = sum(res.iters for res in kept)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del kept
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert iters > 1000
        assert held / iters <= 100.0

    def test_kept_result_fixed_cost_at_most_1200_bytes(self):
        # a zero-iteration result keeps ten empty arrays, an empty trace list and the two
        # slotted dataclasses; with an instance __dict__ each it kept about 1,260 B here
        inst = rayleigh_instance(12, seed=5)
        x0, cfg = inst.initial_point(), SolverConfig(tol=1e10)
        tracemalloc.start()
        try:
            kept = [solve(inst, x0, cfg) for _ in range(1000)]
            assert all(res.iters == 0 for res in kept)
            assert not hasattr(kept[0], "__dict__")
            assert not hasattr(kept[0].diagnostics, "__dict__")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del kept
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / 1000 <= 1200.0


class TestStartRule:
    """Where each line search starts: Nocedal & Wright (3.60), or alpha_init."""

    def test_quadratic_start(self):
        inst = rayleigh_instance(30, seed=7)
        res = solve(inst, inst.initial_point(), SolverConfig(xi=0.1, record_trace=True))
        d = res.diagnostics
        assert res.converged and len(d.alpha0) == res.iters
        assert d.alpha0[0] == min(1.0, 1.0 / d.gnorm[0])
        f = [row.f for row in res.trace]
        for k in range(1, res.iters):
            rule = 1.01 * 2.0 * (f[k] - f[k - 1]) / d.g_dot_eta[k]
            assert d.alpha0[k] == (min(1.0, rule) if 0.0 < rule < math.inf else 1.0)
        assert min(d.alpha0) < 1e-2  # the rule does shorten starts on this run

    def test_infinite_gradient_norm_starts_at_alpha_init(self):
        # 1 / |g| = 0 is no step; from alpha_init the run ends non_finite
        inst = _scaled_instance("rayleigh", 7, 1e154)
        cfg = config_from_id("broyden_bfgs_lf_xi0.1_dr", SolverConfig(tol=1e-6 * 1e154))
        res = solve(inst, inst.initial_point(), cfg)
        assert list(res.diagnostics.gnorm) == [math.inf]
        assert list(res.diagnostics.alpha0) == [1.0]
        assert res.failure_reason is FailureReason.NON_FINITE

    @pytest.mark.parametrize("rise", [0.0, 1e-12], ids=["no-change", "rise"])
    def test_no_decrease_starts_at_alpha_init(self, monkeypatch, rise):
        # the first step's stored f is set to f0 (no decrease) or just above it
        # (a rounding rise): the rule's value is 0 or negative, so the second
        # search starts at alpha_init
        real = solver_mod.search_step

        def search(problem, x, eta, cfg, kind, f0, g0, alpha0, d0):
            ev = real(problem, x, eta, cfg, kind, f0=f0, g0=g0, alpha0=alpha0, d0=d0)
            return ev._replace(f_new=f0 + rise * abs(f0))

        monkeypatch.setattr(solver_mod, "search_step", search)
        inst = rayleigh_instance(30, seed=7)
        cfg = SolverConfig(line_search=LineSearchConfig(alpha_init=0.5), max_iters=2)
        d = solve(inst, inst.initial_point(), cfg).diagnostics
        assert len(d.alpha0) == 2
        assert d.alpha0[0] == min(0.5, 1.0 / d.gnorm[0]) < 0.5
        assert d.alpha0[1] == 0.5

    def test_each_search_starts_at_its_recorded_alpha0(self, monkeypatch):
        real, seen = solver_mod.search_step, []

        def spy(*args, **kwargs):
            seen.append(kwargs["alpha0"])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "search_step", spy)
        inst = rayleigh_instance(30, seed=0)
        ls = LineSearchConfig(alpha_init=0.5)
        res = solve(inst, inst.initial_point(), SolverConfig(line_search=ls))
        assert res.converged
        assert seen == list(res.diagnostics.alpha0)
        assert max(seen) <= 0.5 and min(seen) < 1e-2  # the rule, capped at alpha_init


class TestRoundingFloor:
    """Runs that end line_search_failed when Armijo tests f_new - f0 at the rounding floor."""

    def test_fixed_start_converges_with_the_floor_form(self, monkeypatch):
        # every search starts at alpha_init, not at the start rule's alpha0
        real = solver_mod.search_step

        def fixed(problem, x, eta, cfg, kind, *, alpha0, **kwargs):
            return real(problem, x, eta, cfg, kind, alpha0=cfg.alpha_init, **kwargs)

        monkeypatch.setattr(solver_mod, "search_step", fixed)
        inst = rayleigh_instance(30, seed=12)
        cfg = config_from_id("prp_dr")
        res = solve(inst, inst.initial_point(), cfg)
        assert (res.iters, res.failure_reason) == (106, None)
        # without the hook, Armijo tests f_new itself, and the run fails at the floor
        monkeypatch.delattr(RayleighInstance, "cost_change")
        res = solve(inst, inst.initial_point(), cfg)
        assert (res.iters, res.failure_reason) == (99, FailureReason.LINE_SEARCH_FAILED)

    @pytest.mark.parametrize("sid", ["broyden_bfgs_lf_xi1_dr", "broyden_bfgs_powell_xi1_dr"])
    def test_bracket_compares_cost_changes(self, sid):
        # here f_new - f0 wanders by rounding while the cost change falls; a search
        # that compared two floor trials by f ended line_search_failed at iteration 85
        inst = rayleigh_instance(100, seed=36)
        res = solve(inst, inst.initial_point(), config_from_id(sid))
        assert (res.iters, res.failure_reason) == (88, None)


class TestAllEngines:
    @pytest.mark.parametrize("direction", list(DirectionKind))
    @pytest.mark.parametrize("kind", list(TransportKind))
    def test_every_engine_transport_combination_runs(self, direction, kind):
        inst = rayleigh_instance(12, seed=77)
        cfg = SolverConfig(direction=direction, transport=kind, xi=0.8, max_iters=800)
        res = solve(inst, inst.initial_point(), cfg)
        # PRP/HS carry no descent guarantee; they may stall once the descent
        # rate drops below the fp noise of f, recorded as a line-search failure
        if res.failure_reason is FailureReason.LINE_SEARCH_FAILED:
            assert direction in (DirectionKind.PRP, DirectionKind.HS, DirectionKind.HZ)
            assert res.final_gnorm < 1e-3
        else:
            assert res.converged or res.failure_reason is FailureReason.MAX_ITERS
        assert all(v < 0.0 for v in res.diagnostics.g_dot_eta)

    @pytest.mark.parametrize("direction", [DirectionKind.BROYDEN, DirectionKind.DY, DirectionKind.HZ])
    def test_engines_on_oblique(self, direction):
        inst = offdiag_instance(6, 3, 2, seed=55)
        cfg = SolverConfig(direction=direction, xi=0.1, max_iters=2000)
        res = solve(inst, inst.initial_point(), cfg)
        assert res.converged or res.failure_reason is FailureReason.MAX_ITERS

    def test_direction_gradient_ratio_finite_and_stable(self):
        # the per-run max of |eta| / |g| stays finite; its spread across seeds
        # is logged by the acceptance suite rather than pinned here
        maxima = []
        for seed in range(6):
            inst = rayleigh_instance(15, seed=900 + seed)
            res = solve(inst, inst.initial_point(), SolverConfig(xi=0.1))
            ratios = np.array(res.diagnostics.eta_norm) / np.array(res.diagnostics.gnorm)
            assert np.all(np.isfinite(ratios))
            maxima.append(ratios.max())
        assert np.all(np.isfinite(maxima))


def _capture(monkeypatch, name, calls):
    """Replace ``solver.<name>`` with a wrapper appending ``(args, result)`` to ``calls``."""
    real = getattr(solver_mod, name)

    def captured(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(solver_mod, name, captured)


def _hexes(values):
    return [float(v).hex() for v in values]


class TestInFrameProducts:
    """``solve`` takes the products the directions read from the arrays it holds, bit
    for bit as ``inner`` takes them."""

    @pytest.mark.parametrize("sid,make", [
        ("broyden_bfgs_lf_xi0.1_dr", lambda: rayleigh_instance(30, seed=7)),
        ("broyden_preconvex_powell_xi0.8_invret", lambda: offdiag_instance(6, 3, 2, seed=5)),
    ])
    def test_broyden_memory(self, monkeypatch, sid, make):
        steps, z_calls, p_calls = [], [], []
        _capture(monkeypatch, "search_step", steps)
        _capture(monkeypatch, "compute_z", z_calls)
        _capture(monkeypatch, "schedule_params", p_calls)
        inst = make()
        res = solve(inst, inst.initial_point(), config_from_id(sid))
        assert res.converged and len(steps) == len(z_calls) == len(p_calls) == res.iters
        for (_, ev), ((_, s, y, _, ss, sy), z), ((s2, z2, _, _, ss2, sz), _) in zip(
                steps, z_calls, p_calls):
            # the step image is alpha * T(eta) of the accepted step, bit for bit
            assert s.tobytes() == (ev.alpha * ev.t_eta).tobytes()
            assert y.tobytes() == (ev.g_new - ev.t_g).tobytes()
            assert s2 is s and z2 is z and ss2 == ss
            assert _hexes((ss, sy)) == _hexes((np.vdot(s, s), np.vdot(s, y)))
            assert sz is None if z is not y else sz.hex() == float(np.vdot(s, z)).hex()

    @pytest.mark.parametrize("sid,make", [
        ("hz_dr", lambda: rayleigh_instance(30, seed=7)),
        ("dy_proj", lambda: rayleigh_instance(30, seed=7)),
        ("fr_invret", lambda: offdiag_instance(6, 3, 2, seed=5)),
    ])
    def test_cg_beta_inputs(self, monkeypatch, sid, make):
        # cg_beta gets the accepted step's g and T(g_prev) and the scalars of the step
        # before, and gives the beta that all of its products, taken by inner, give
        steps, betas = [], []
        _capture(monkeypatch, "search_step", steps)
        _capture(monkeypatch, "cg_beta", betas)
        inst = make()
        res = solve(inst, inst.initial_point(), config_from_id(sid, SolverConfig(max_iters=300)))
        d = res.diagnostics
        assert len(betas) == res.iters - 1 > 10
        for k, ((_, ev), ((kind, g, t_g, *scalars), beta)) in enumerate(zip(steps, betas)):
            x = ev.x_new
            assert g is ev.g_new and t_g is ev.t_g and kind is config_from_id(sid).direction
            want = (ev.dphi, d.gnorm[k] * d.gnorm[k], d.g_dot_eta[k])
            assert _hexes(scalars) == _hexes(want)
            want = reference_cg_beta(kind, x, g, t_g, *scalars)
            assert beta.hex() == want.hex()


def _run_bits(res: RunResult) -> dict:
    """Everything a run records but its timings, each double as its hex and each iterate
    and direction as its bytes."""
    d = res.diagnostics
    return {
        "result": (res.converged, res.iters, res.final_f.hex(), res.final_gnorm.hex(),
                   res.failure_reason, res.failure_detail, d.restarts),
        "series": {name: _hexes(getattr(d, name)) for name in RunDiagnostics.SERIES},
        "trace": [(row.iteration, _hexes((row.f, row.gnorm, row.alpha, row.g_dot_eta)),
                   row.point.ambient.tobytes(),
                   None if row.direction is None else row.direction.tobytes())
                  for row in res.trace],
    }


class TestCgReadsNoBroydenField:
    """A CG run builds no Broyden memory: z_mode, phi_mode and xi cannot move it."""

    @pytest.mark.parametrize("make", [lambda: rayleigh_instance(30, seed=7),
                                      lambda: offdiag_instance(6, 3, 2, seed=5)],
                             ids=["rayleigh", "offdiag"])
    @pytest.mark.parametrize("direction", [k for k in DirectionKind
                                           if k is not DirectionKind.BROYDEN],
                             ids=lambda k: k.value)
    @pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.value)
    def test_broyden_fields_leave_the_run_unchanged(self, make, direction, transport):
        inst = make()
        cfg = SolverConfig(direction=direction, transport=transport, max_iters=500,
                           record_trace=True)
        other = dataclasses.replace(cfg, z_mode=ZMode.POWELL, phi_mode=PhiMode.PRECONVEX, xi=0.1)
        assert solver_id(other) == solver_id(cfg)
        runs = [_run_bits(solve(inst, inst.initial_point(), c)) for c in (cfg, other)]
        assert runs[0] == runs[1]
        assert runs[0]["series"]["z_margin"] == runs[0]["series"]["z_ratio"] == []


def _riemqn_frames(run):
    """Python frames of the riemqn package entered while ``run()`` runs, and its result."""
    package = os.path.dirname(riemqn.__file__) + os.sep
    count = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            count[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return count[0], result


# solver id, instance -> (riemqn Python frames in one solve, its iterations), with the
# shipped configs' tol and max_iters: a frame added to the loop fails here.  Recorded
# when the loop began to carry tangent data as arrays (it had been 8438, 11745, 24231
# and 13534 frames with a Tangent built for every vector); the iterations are unchanged.
# The CG rows again when the CG step dropped its scaling factor, and with it three frames
# a step (scaling_sigma, norm, _vector_norm): hz_dr from 10368 frames, and dy_invret
# from (11649, 314), whose iterates moved.  All four again when grad came to return
# its array, without the Tangent's __init__ and __post_init__ frames: from 6929, 9708,
# 19454 and 10639 frames, the iterations unchanged.
FRAMES_PER_RUN = {
    ("broyden_bfgs_lf_xi0.1_dr", "rayleigh 100, seed 20250"): (6611, 146),
    ("hz_dr", "rayleigh 100, seed 20250"): (9238, 220),
    ("broyden_bfgs_lf_xi0.1_invret", "offdiag 10x5x5, seed 30500"): (18456, 464),
    ("dy_invret", "offdiag 10x5x5, seed 30500"): (10013, 312),
}
_FRAME_INSTANCES = {
    "rayleigh 100, seed 20250": lambda: rayleigh_instance(100, 20250),
    "offdiag 10x5x5, seed 30500": lambda: offdiag_instance(10, 5, 5, 30500),
}


@pytest.mark.parametrize("sid,instance", list(FRAMES_PER_RUN), ids=lambda v: v.split(",")[0])
def test_python_frames_per_run_pinned(sid, instance):
    inst = _FRAME_INSTANCES[instance]()
    cfg = config_from_id(sid, SolverConfig(tol=1e-6, max_iters=10000))
    x0 = inst.initial_point()
    frames, res = _riemqn_frames(lambda: solve(inst, x0, cfg))
    assert res.converged
    assert (frames, res.iters) == FRAMES_PER_RUN[sid, instance]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: bare {name}")


def _scaled(inst, scale: float):
    """``inst`` with its matrices multiplied by ``scale``."""
    if isinstance(inst, RayleighInstance):
        return RayleighInstance(matrix=inst.matrix * scale, x0=inst.x0, seed=inst.seed)
    mats = tuple(m * scale for m in inst.matrices)
    return OffDiagonalInstance(matrices=mats, x0=inst.x0, seed=inst.seed)


def _scaled_instance(kind: str, seed: int, scale: float, n: int = 5):
    """The seeded instance (Rayleigh of size n, offdiag 4x2x2) scaled by ``scale``."""
    inst = rayleigh_instance(n, seed) if kind == "rayleigh" else offdiag_instance(4, 2, 2, seed)
    return _scaled(inst, scale)


# the 69 solver ids: Broyden with each phi mode, either z mode and xi 0.1, 0.8 or 1,
# and the five CG rules, each with the three transports
ALL_IDS = [
    f"{engine}_{t}"
    for engine in [f"broyden_{phi.value}_{z.value}_xi{xi}" for phi in PhiMode
                   for z in ZMode for xi in ("0.1", "0.8", "1")]
    + ["fr", "dy", "prp", "hs", "hz"]
    for t in ("dr", "proj", "invret")
]


class TestNumericalBreakdown:
    """Runs never raise on numerical breakdown; they end with a recorded reason."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 20),
        kind=st.sampled_from(["rayleigh", "offdiag"]),
        exponent=st.floats(-300.0, 307.0),
        sid=st.sampled_from(["broyden_bfgs_lf_xi0.1_dr", "broyden_preconvex_powell_xi0.8_invret",
                             "hz_proj", "hz_invret", "dy_dr"]),
    )
    def test_scaled_problem_returns_a_result(self, seed, kind, exponent, sid):
        scale = 10.0 ** exponent
        inst = _scaled_instance(kind, seed, scale)
        cfg = config_from_id(sid, SolverConfig(tol=1e-6 * scale, max_iters=300))
        with np.errstate(all="ignore"):
            res = solve(inst, inst.initial_point(), cfg)
        assert isinstance(res, RunResult)
        assert res.converged == (res.failure_reason is None)

    @settings(max_examples=200, deadline=None)
    @given(
        problem=st.one_of(st.integers(1, 8), st.just("offdiag")),
        seed=st.integers(0, 20),
        exponent=st.floats(-300.0, 307.0),
        sid=st.sampled_from(PROPERTY_IDS),
        alpha_max=st.sampled_from([1e10, math.inf]),
        max_iters=st.integers(1, 200),
    )
    def test_solve_never_raises(self, problem, seed, exponent, sid, alpha_max, max_iters):
        # every run ends converged or with a named reason, and its series have
        # the lengths the RunDiagnostics docstring states
        scale = 10.0 ** exponent
        if problem == "offdiag":
            inst = _scaled_instance("offdiag", seed, scale)
        else:
            inst = _scaled_instance("rayleigh", seed, scale, n=problem)
        ls = LineSearchConfig(alpha_max=alpha_max)
        cfg = config_from_id(sid, SolverConfig(tol=1e-6 * scale, max_iters=max_iters,
                                               line_search=ls))
        res = solve(inst, inst.initial_point(), cfg)
        reason, d = res.failure_reason, res.diagnostics
        assert res.converged == (reason is None)
        assert reason is None or isinstance(reason, FailureReason)
        assert (res.failure_detail == "") == (reason in (None, FailureReason.MAX_ITERS))
        assert all(getattr(d, name).typecode == "d" for name in RunDiagnostics.SERIES)
        searches = len(d.gnorm)
        assert len(d.g_dot_eta) == len(d.eta_norm) == len(d.alpha0) == searches
        assert len(d.alpha) == res.iters
        # a search that raised was started but accepted no step
        failed_search = reason is FailureReason.LINE_SEARCH_FAILED or (
            reason is FailureReason.NON_FINITE
            and res.failure_detail != solver_mod._NON_FINITE_SLOPE)
        assert searches == res.iters + failed_search
        # every accepted Broyden step builds the memory, unless that build is what
        # failed; a CG run builds none
        broyden = sid.startswith("broyden")
        builds = res.iters - (reason is FailureReason.DEGENERATE_STEP) if broyden else 0
        assert len(d.z_margin) == len(d.z_ratio) == builds
        # a Broyden direction is computed from memory before every search but the
        # first, and before a slope that ends the run non_finite
        directions = searches + (res.failure_detail == solver_mod._NON_FINITE_SLOPE)
        assert len(d.gamma) == len(d.tau) == len(d.phi) == (
            max(directions - 1, 0) if broyden else 0)

    @pytest.mark.slow
    def test_fuzz_over_sizes_and_scales_never_raises(self):
        # wider than the properties above: Rayleigh n 2-30 and offdiag up to 6x3x3,
        # matrices scaled by 10^U(-200, 200) with tol scaled alike (f is quadratic in
        # the offdiag matrices), 6 of the 69 ids per instance; this range found the
        # preconvex mu's ZeroDivisionError below
        rnd = random.Random(0)
        assert len(ALL_IDS) == 69
        for _ in range(300):
            c = 10.0 ** rnd.uniform(-200.0, 200.0)
            seed = rnd.randrange(2**20)
            if rnd.random() < 0.5:
                inst, tol = _scaled(rayleigh_instance(rnd.randint(2, 30), seed), c), 1e-8 * c
            else:
                n = rnd.randint(2, 6)
                dims = (n, rnd.randint(1, min(3, n)), rnd.randint(1, 3))
                inst, tol = _scaled(offdiag_instance(*dims, seed), c), 1e-8 * c * c
            alpha_init, alpha_max = rnd.choice([(1e10, 1e10), (1.0, math.inf)])
            base = SolverConfig(tol=min(max(tol, 1e-300), 1e300), max_iters=200,
                                line_search=LineSearchConfig(alpha_init=alpha_init,
                                                             alpha_max=alpha_max))
            for sid in rnd.sample(ALL_IDS, 6):
                with np.errstate(all="ignore"):
                    res = solve(inst, inst.initial_point(), config_from_id(sid, base))
                assert res.converged == (res.failure_reason is None), (sid, inst.seed, c)

    @pytest.mark.parametrize("sid", ["broyden_preconvex_powell_xi0.1_dr",
                                     "broyden_preconvex_lf_xi0.1_dr",
                                     "broyden_preconvexrecip_powell_xi0.1_dr"])
    def test_preconvex_underflowing_curvature_square_does_not_raise(self, sid):
        # found by a fuzz over Rayleigh n 2-30, beyond the n <= 8 sampled above: after
        # the first step |<s, z>| < 1e-162, so sz * sz underflows to 0, which the
        # preconvex mu once divided by, raising ZeroDivisionError out of solve
        c = 6.611357288337949e-163
        inst = _scaled_instance("rayleigh", 184451, c, n=30)
        ls = LineSearchConfig(alpha_init=1e10, alpha_max=1e10)
        cfg = config_from_id(sid, SolverConfig(tol=1e-8 * c, max_iters=200, line_search=ls))
        res = solve(inst, inst.initial_point(), cfg)
        assert (res.iters, res.failure_reason) == (1, FailureReason.LINE_SEARCH_FAILED)
        assert len(res.diagnostics.phi) == 1 and math.isfinite(res.diagnostics.phi[0])

    def test_hz_underflowing_denominator_square_does_not_raise(self):
        # the first search starts at alpha_init = 1 (1 / |g| ~ 4e149 is capped), and
        # no step within max_evals doublings moves x: x + alpha * eta rounds back to
        # x, so T(eta) = P_x(eta) = eta fails the curvature test at every trial and
        # the run ends line_search_failed at iteration 0, as hz_dr and hz_proj do.
        # (invret once took T(eta) = s / alpha with s exactly 0 there, so every
        # curvature test passed and the run never moved.)  HZ's restart on an
        # underflowing den * den is covered in tests/test_directions.py.
        inst = _scaled_instance("rayleigh", 1, 1e-150)
        cfg = config_from_id("hz_invret", SolverConfig(tol=1e-6 * 1e-150, max_iters=300))
        with np.errstate(all="ignore"):
            res = solve(inst, inst.initial_point(), cfg)
        assert isinstance(res, RunResult)
        assert res.failure_reason is FailureReason.LINE_SEARCH_FAILED
        assert res.iters == 0
        assert list(res.diagnostics.alpha0) == [1.0]
        assert res.final_f == inst.cost(inst.initial_point())

    @staticmethod
    def _vanishing_transport(monkeypatch):
        real = linesearch_mod.transport_direction

        def vanishing(*args):
            t_eta, t_g = real(*args)
            return np.zeros_like(t_eta), t_g

        monkeypatch.setattr(linesearch_mod, "transport_direction", vanishing)

    def test_vanishing_transported_direction_is_a_degenerate_step(self, monkeypatch):
        # T(eta) = 0 passes the curvature test and makes s = alpha * T(eta) = 0, so a
        # Broyden run's compute_z finds <s, s> = 0
        self._vanishing_transport(monkeypatch)
        inst = rayleigh_instance(12, seed=3)
        res = solve(inst, inst.initial_point(), config_from_id("broyden_bfgs_lf_xi0.1_dr"))
        assert (res.iters, res.failure_reason) == (1, FailureReason.DEGENERATE_STEP)
        assert res.failure_detail == "DegenerateStepError: previous step has zero norm"

    @pytest.mark.parametrize("sid", ["fr_dr", "dy_dr", "hz_dr", "prp_proj", "hs_invret"])
    def test_vanishing_transported_direction_leaves_a_cg_run_on_minus_g(self, monkeypatch,
                                                                         sid):
        # a CG step reads no norm of T(eta), so with T(eta) = 0 each rule's direction is
        # -g + beta * 0 = -g, and every rule runs the same steepest descent to convergence
        self._vanishing_transport(monkeypatch)
        directions = []
        _capture(monkeypatch, "cg_direction", directions)
        inst = rayleigh_instance(12, seed=3)
        res = solve(inst, inst.initial_point(), config_from_id(sid))
        assert (res.iters, res.failure_reason, res.diagnostics.restarts) == (46, None, 0)
        assert len(directions) == res.iters - 1
        for (g, _, t_eta), eta in directions:
            assert not t_eta.any()
            assert np.array_equal(eta, -g)

    def test_hz_overflowing_denominator_square_restarts(self):
        # Rayleigh n=30 seed 7 scaled by 1e100: den * den overflows on every step
        # after the first, so cg_beta gives no beta and each of those steps restarts
        inst = _scaled_instance("rayleigh", 7, 1e100, n=30)
        cfg = config_from_id("hz_dr", SolverConfig(tol=1e-6 * 1e100))
        res = solve(inst, inst.initial_point(), cfg)
        assert (res.iters, res.failure_reason) == (113, None)
        assert res.diagnostics.restarts == 112

    @pytest.mark.parametrize("scale,iters", [(1.0, 54), (1e50, 59), (1e100, 55), (1e150, 54)])
    def test_scaled_rayleigh_converges(self, scale, iters):
        # the start rule needs no jump to alpha_init: from a short start the bracket
        # doubles, and a scaled problem converges in about as many iterations
        inst = _scaled_instance("rayleigh", 7, scale, n=30)
        cfg = config_from_id("broyden_bfgs_lf_xi0.1_dr", SolverConfig(tol=1e-6 * scale))
        res = solve(inst, inst.initial_point(), cfg)
        assert (res.iters, res.failure_reason) == (iters, None)

    @pytest.mark.parametrize("sid,iters,restarts", [("hz_dr", 31, 30), ("dy_dr", 45, 0)])
    def test_scaled_cg_converges_from_the_rule_start(self, sid, iters, restarts):
        # Rayleigh n=5 seed 7 scaled by 1e150: from alpha_init = 1 the first search
        # cannot halve down to a step near 1 / |g| within max_evals, and the run
        # ends line_search_failed at iteration 0; the rule starts it at 1 / |g|
        inst = _scaled_instance("rayleigh", 7, 1e150)
        cfg = config_from_id(sid, SolverConfig(tol=1e-6 * 1e150))
        res = solve(inst, inst.initial_point(), cfg)
        assert (res.iters, res.failure_reason) == (iters, None)
        assert res.diagnostics.restarts == restarts

    @pytest.mark.parametrize("kind,scale", [("rayleigh", 1e154), ("offdiag", 1e77),
                                            ("offdiag", 1e154)])
    def test_overflow_recorded_as_non_finite(self, kind, scale):
        inst = _scaled_instance(kind, 7, scale)
        cfg = config_from_id("broyden_bfgs_lf_xi0.1_dr", SolverConfig(tol=1e-6 * scale))
        with np.errstate(all="ignore"):
            res = solve(inst, inst.initial_point(), cfg)
        assert res.failure_reason is FailureReason.NON_FINITE
        assert res.converged is False

    @pytest.mark.parametrize("sid", ["broyden_bfgs_lf_xi0.1_dr", "hz_dr"])
    def test_underflowing_gradient_is_not_converged(self, sid):
        # every |g_i|^2 underflows, so an unscaled norm reads 0 and passes tol;
        # the scaled norm sees |g| ~ 4.5e-300 > tol, and <g, eta> = -|g|^2 underflows
        inst = _scaled_instance("rayleigh", 7, 1e-300)
        cfg = config_from_id(sid, SolverConfig(tol=1e-306))
        res = solve(inst, inst.initial_point(), cfg)
        assert res.failure_reason is FailureReason.NON_FINITE
        assert res.iters == 0
        assert res.failure_detail == solver_mod._NON_FINITE_SLOPE
        assert res.diagnostics.restarts == 0  # no step was taken, so none to restart from
        assert res.final_gnorm == pytest.approx(4.5335e-300, rel=1e-4)

    def test_overflow_emits_no_warning(self):
        inst = _scaled_instance("rayleigh", 7, 1e154)
        cfg = config_from_id("broyden_bfgs_lf_xi0.1_dr", SolverConfig(tol=1e-6 * 1e154))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(inst, inst.initial_point(), cfg)
        assert res.failure_reason is FailureReason.NON_FINITE


CG_IDS = [sid for sid in PROPERTY_IDS if not sid.startswith("broyden")]


class TestExactInvariance:
    """Relations the problems have by construction, which every run keeps bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        dims=st.one_of(st.tuples(st.integers(2, 30)),
                       st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3))),
        seed=st.integers(0, 2**32 - 1),
        sid=st.sampled_from(PROPERTY_IDS),
        column=st.integers(0, 2),
    )
    def test_negated_start_gives_the_same_run(self, dims, seed, sid, column):
        # f(-x) = f(x) on Rayleigh, and negating one column of X leaves the off-diagonal
        # cost unchanged: every gradient, direction and iterate flips with it exactly
        if len(dims) == 1:
            inst = rayleigh_instance(dims[0], seed)
            flip = np.negative
        else:
            n, p, num = dims
            inst = offdiag_instance(n, min(p, n), num, seed)
            j = column % min(p, n)

            def flip(arr):
                out = arr.copy()
                out[:, j] = -out[:, j]
                return out

        x0 = inst.initial_point()
        cfg = config_from_id(sid, SolverConfig(max_iters=300, record_trace=True))
        runs = [solve(inst, x, cfg) for x in (x0, Point(inst.manifold, flip(x0.ambient)))]
        base, negated = (_run_bits(res) for res in runs)
        assert negated["result"] == base["result"]
        assert negated["series"] == base["series"]
        assert len(runs[1].trace) == len(runs[0].trace) == runs[0].iters + 1
        for row, neg in zip(*(res.trace for res in runs)):
            assert neg.point.ambient.tobytes() == flip(row.point.ambient).tobytes()
            if row.direction is not None:
                assert neg.direction.tobytes() == flip(row.direction).tobytes()

    @staticmethod
    def _assert_covariant(inst, sid, k):
        # A -> 2^k A scales f, g and eta by c = 2^k and the step by 1 / c, each exactly,
        # so tol, alpha_init and alpha_max scale with them and the run repeats.  The
        # off-diagonal cost is quadratic in each C_i, so there C_i -> 2^k C_i gives c = 2^(2k)
        rayleigh = isinstance(inst, RayleighInstance)
        c = 2.0**k if rayleigh else 2.0**(2 * k)
        runs = []
        for m, scale in ((1.0, 1.0), (2.0**k, c)):
            if rayleigh:
                scaled = RayleighInstance(matrix=inst.matrix * m, x0=inst.x0, seed=inst.seed)
            else:
                scaled = OffDiagonalInstance(matrices=tuple(a * m for a in inst.matrices),
                                             x0=inst.x0, seed=inst.seed)
            ls = LineSearchConfig(alpha_init=1.0 / scale, alpha_max=1e10 / scale)
            cfg = config_from_id(sid, SolverConfig(tol=1e-6 * scale, max_iters=3000,
                                                   line_search=ls))
            runs.append(solve(scaled, scaled.initial_point(), cfg))
        base, res = runs
        assert (res.iters, res.failure_reason, res.diagnostics.restarts) == (
            base.iters, base.failure_reason, base.diagnostics.restarts)
        assert res.final_f.hex() == (c * base.final_f).hex()
        assert res.final_gnorm.hex() == (c * base.final_gnorm).hex()
        for name, power in (("gnorm", 1), ("eta_norm", 1), ("g_dot_eta", 2), ("alpha0", -1),
                            ("alpha", -1)):
            want = [c**power * v for v in getattr(base.diagnostics, name)]
            assert _hexes(getattr(res.diagnostics, name)) == _hexes(want), name

    @pytest.mark.parametrize("k", [-20, 20])
    @pytest.mark.parametrize("sid", CG_IDS)
    def test_cg_run_is_covariant_under_power_of_two_scaling(self, sid, k):
        self._assert_covariant(rayleigh_instance(30, 7), sid, k)

    # every CG id on Rayleigh n <= 30, seeds 0-5, kept the relation bitwise for
    # |k| <= 230; it failed at k = -250 (underflow) and 270 (overflow)
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        sid=st.sampled_from(CG_IDS),
        k=st.integers(-150, 150),
    )
    def test_cg_covariance_over_seeds_dims_and_scales(self, n, seed, sid, k):
        self._assert_covariant(rayleigh_instance(n, seed), sid, k)

    @pytest.mark.parametrize("k", [-20, -10, 10, 20])
    @pytest.mark.parametrize("sid", CG_IDS)
    def test_offdiag_cg_run_is_covariant_under_power_of_two_scaling(self, sid, k):
        for seed in range(4):
            self._assert_covariant(offdiag_instance(6, 3, 3, seed), sid, k)

    # every CG id on offdiag up to 6 x 3 x 3, seeds 0-3, kept the relation bitwise
    # for |k| <= 100
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        sid=st.sampled_from(CG_IDS),
        k=st.integers(-75, 75),
    )
    def test_offdiag_cg_covariance_over_seeds_dims_and_scales(self, dims, seed, sid, k):
        n, p, num = dims
        self._assert_covariant(offdiag_instance(n, min(p, n), num, seed), sid, k)


class TestRoundingInvariance:
    """Relations the problems have by construction, which runs keep to rounding: a
    prefix of iterates and, when both runs converge, ``final_f``.  Iteration counts
    are not compared; a line-search decision flips once the runs drift apart."""

    # The bounds are measured over every PROPERTY_IDS id at max_iters 300, on Rayleigh
    # n = 2-30, seeds 0-5 and 10^6 + (0-3) (14,790 pairs), and offdiag n <= 6,
    # p, N <= 3, seeds 0-3 and 10^6 + (0-5) (21,420 pairs), at tol 1e-8 and 1e-10:
    # * rotated Rayleigh iterates x_0..x_7 within 1.2e-11 for n >= 5 and x_0..x_2 within
    #   2.0e-14 for n < 5, where HS and PRP steps amplify rounding faster (8.8e-10 at
    #   x_3); over 20 iterates a flipped decision leaves some runs 1e-3 apart;
    # * Rayleigh final_f within 1.92 n eps |A|_F;
    # * permuted offdiag iterates x_0..x_4 within 2.4e-12, and final_f within
    #   0.1 eps sum |C_i|_F^2 at tol 1e-10 (12,852 pairs).  At tol 1e-8 an instance
    #   whose minimum is 0 differed by 1.3 eps sum |C_i|_F^2: there the stopping
    #   residual, of order tol^2 over the curvature, exceeds the rounding.
    # Each bound below keeps a margin of 4x or more on its measurement.

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        q_seed=st.integers(0, 2**32 - 1),
        sid=st.sampled_from(PROPERTY_IDS),
    )
    def test_rotated_rayleigh_follows_the_rotated_run(self, n, seed, q_seed, sid):
        # f(Q x) on Q A Q' is f(x) on A, so the run from Q x0 is Q times the run from x0
        inst = rayleigh_instance(n, seed)
        q, _ = np.linalg.qr(SplitMix64(q_seed).normal((n, n)))
        b = q @ inst.matrix @ q.T
        rotated = RayleighInstance(matrix=0.5 * (b + b.T), x0=q @ inst.x0, seed=seed)
        cfg = config_from_id(sid, SolverConfig(tol=1e-10, max_iters=300, record_trace=True))
        base, res = (solve(prob, prob.initial_point(), cfg) for prob in (inst, rotated))
        for row, rot in zip(base.trace[:8 if n >= 5 else 3], res.trace):
            assert np.max(np.abs(rot.point.ambient - q @ row.point.ambient)) <= 1e-9
        if base.converged and res.converged:
            eps = np.finfo(float).eps
            assert abs(res.final_f - base.final_f) <= 8 * n * eps * np.linalg.norm(inst.matrix)

    # Measured over the 15 CG ids at tol 1e-8, max_iters 500, Rayleigh n = 2-30, seeds
    # 0-5 and random, k in -8..8 (23,120 pairs): x_0..x_2 within 1.9e-11, while later
    # iterates drifted up to 1.8e-7 by x_3 (n < 5) and 7.1e-8 by x_8 (n >= 5); final_f / c
    # within 1.42 n eps |A|_F.  Iteration counts were equal in about one pair in six.
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        sid=st.sampled_from(CG_IDS),
        k=st.sampled_from([k for k in range(-8, 9) if k]),
    )
    def test_decimal_scaling_follows_the_unscaled_run(self, n, seed, sid, k):
        # A -> c A with c = 10^k, tol by c and the steps by 1 / c: the relation that
        # holds bit for bit at c = 2^k (TestExactInvariance), here up to the rounding of
        # c A, c tol and 1 / c
        c = 10.0**k
        inst = rayleigh_instance(n, seed)
        runs = []
        for prob, scale in ((inst, 1.0),
                            (RayleighInstance(matrix=inst.matrix * c, x0=inst.x0, seed=seed), c)):
            ls = LineSearchConfig(alpha_init=1.0 / scale, alpha_max=1e10 / scale)
            cfg = config_from_id(sid, SolverConfig(tol=1e-8 * scale, max_iters=500,
                                                   record_trace=True, line_search=ls))
            runs.append(solve(prob, prob.initial_point(), cfg))
        base, res = runs
        for row, scaled in zip(base.trace[:3], res.trace):
            assert np.max(np.abs(scaled.point.ambient - row.point.ambient)) <= 1e-10
        if base.converged and res.converged:
            eps = np.finfo(float).eps
            assert abs(res.final_f / c - base.final_f) <= 8 * n * eps * np.linalg.norm(inst.matrix)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        sid=st.sampled_from(PROPERTY_IDS),
        data=st.data(),
    )
    def test_permuted_offdiag_follows_the_permuted_run(self, dims, seed, sid, data):
        # permuting the columns of X permutes each X' C_i X alike, and the cost sums the
        # same squares whatever the order of the C_i
        n, p, num = dims
        inst = offdiag_instance(n, min(p, n), num, seed)
        perm = np.array(data.draw(st.permutations(range(min(p, n)))), dtype=np.intp)
        other = OffDiagonalInstance(matrices=inst.matrices[::-1], x0=inst.x0[:, perm],
                                    seed=seed)
        cfg = config_from_id(sid, SolverConfig(tol=1e-10, max_iters=300, record_trace=True))
        base, res = (solve(prob, prob.initial_point(), cfg) for prob in (inst, other))
        for row, moved in zip(base.trace[:5], res.trace):
            assert np.max(np.abs(moved.point.ambient - row.point.ambient[:, perm])) <= 1e-10
        if base.converged and res.converged:
            scale = sum(float(np.sum(c * c)) for c in inst.matrices)
            assert abs(res.final_f - base.final_f) <= np.finfo(float).eps * scale
