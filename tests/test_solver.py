import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    RunResult,
    SolverConfig,
    Sphere,
    SplitMix64,
    TransportKind,
    ZMode,
    config_from_id,
    norm,
    offdiag_instance,
    random_point,
    rayleigh_instance,
    solve,
    solver_id,
    wolfe_check,
)

from _support import jacobi_eigenvalues


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
        with pytest.raises(ConfigError):
            SolverConfig(hz_mu=0.25)

    def test_default_nu_hat_follows_z_mode(self):
        assert SolverConfig(z_mode=ZMode.LI_FUKUSHIMA).resolved_nu_hat() == 1e-6
        assert SolverConfig(z_mode=ZMode.POWELL).resolved_nu_hat() == 0.1
        assert SolverConfig(nu_hat=0.05).resolved_nu_hat() == 0.05

    def test_dict_roundtrip(self):
        cfg = SolverConfig(
            direction=DirectionKind.HZ,
            transport=TransportKind.PROJECTION,
            xi=0.8,
            hz_mu=3.0,
            tol=1e-7,
            max_iters=50,
            line_search=LineSearchConfig(c1=1e-3, c2=0.5, max_evals=40),
        )
        data = json.loads(json.dumps(cfg.to_dict()))
        again = SolverConfig.from_dict(data)
        assert again == cfg

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

    def test_bare_cg_id_defaults_transport(self):
        cfg = config_from_id("hz")
        assert cfg.direction is DirectionKind.HZ
        assert cfg.transport is TransportKind.DIFFERENTIATED_RETRACTION

    def test_bad_ids_rejected(self):
        for sid in ("newton", "broyden_bfgs_lf_dr", "broyden_bfgs_lf_xi0.1_warp", "dy_dr_x"):
            with pytest.raises(ConfigError):
                config_from_id(sid)


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
            lambda: SolverConfig(preconvex_mu_reciprocal="no"),
            lambda: SolverConfig(preconvex_mu_reciprocal=1),
            lambda: SolverConfig(record_trace=None),
            lambda: SolverConfig(xi=True),
            lambda: SolverConfig(xi=float("nan")),
            lambda: SolverConfig(tol="1e-6"),
            lambda: SolverConfig(hz_mu=None),
            lambda: SolverConfig(nu_hat="0.1"),
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
            "max_iters_2.5", "max_iters_10.0", "max_iters_true", "reciprocal_str",
            "reciprocal_int", "record_trace_none", "xi_true", "xi_nan", "tol_str",
            "hz_mu_none", "nu_hat_str", "direction_str", "transport_zmode", "phi_mode_str",
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
            {"preconvex_mu_reciprocal": "false"},
            {"preconvex_mu_reciprocal": 0},
            {"record_trace": "no"},
            {"tol": None},
            {"xi": "0.5"},
            {"xi": False},
            {"xi": float("nan")},
            {"hz_mu": None},
            {"nu_hat": "0.1"},
            {"transport": "warp"},
            {"transport": None},
            {"z_mode": 1},
            {"direction": "HZ"},
            {"line_search": {"max_ls_evals": 2.5}},
            {"line_search": {"max_ls_evals": 40.5}},
            {"line_search": {"max_evals": 40}},
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

    def test_accepted_spellings(self):
        assert SolverConfig.from_dict({"transport": "proj"}) == SolverConfig.from_dict(
            {"transport": "projection"}
        )
        assert SolverConfig.from_dict({"z_mode": "lf"}).z_mode is ZMode.LI_FUKUSHIMA
        assert SolverConfig.from_dict({"z_mode": "li_fukushima"}).z_mode is ZMode.LI_FUKUSHIMA
        cfg = SolverConfig.from_dict(
            {"xi": 1, "nu_hat": None, "max_iters": np.int64(50),
             "line_search": {"max_ls_evals": np.int32(40), "alpha_max": 10}}
        )
        assert type(cfg.xi) is float and cfg.xi == 1.0
        assert cfg.nu_hat is None
        assert type(cfg.max_iters) is int and cfg.max_iters == 50
        assert cfg.line_search == LineSearchConfig(max_evals=40, alpha_max=10.0)

    @pytest.mark.parametrize(
        "z_mode,nu_hat",
        [(ZMode.LI_FUKUSHIMA, 0.0), (ZMode.LI_FUKUSHIMA, -1.0), (ZMode.POWELL, 1.0),
         (ZMode.POWELL, 2.0), (ZMode.POWELL, 0.0)],
    )
    def test_nu_hat_out_of_range_rejected(self, z_mode, nu_hat):
        # caught with the config, not as a ContractViolationError inside solve
        with pytest.raises(ConfigError, match="nu_hat"):
            SolverConfig(z_mode=z_mode, nu_hat=nu_hat)
        with pytest.raises(ConfigError, match="nu_hat"):
            SolverConfig.from_dict({"z_mode": z_mode.value, "nu_hat": nu_hat})

    def test_null_nu_hat_clears_the_base_value(self):
        cfg = SolverConfig.from_dict({"nu_hat": None}, base=SolverConfig(nu_hat=0.3))
        assert cfg.nu_hat is None

    def test_line_search_merges_with_base(self):
        base = SolverConfig(line_search=LineSearchConfig(c1=1e-3, max_evals=40))
        cfg = SolverConfig.from_dict({"line_search": {"c2": 0.5}}, base=base)
        assert cfg.line_search == LineSearchConfig(c1=1e-3, c2=0.5, max_evals=40)

    def test_default_to_dict(self):
        assert SolverConfig().to_dict() == {
            "direction": "broyden",
            "transport": "differentiated_retraction",
            "phi_mode": "bfgs",
            "z_mode": "li_fukushima",
            "xi": 1.0,
            "nu_hat": None,
            "hz_mu": 2.0,
            "preconvex_mu_reciprocal": False,
            "tol": 1e-6,
            "max_iters": 10000,
            "line_search": {
                "c1": 1e-4,
                "c2": 0.9,
                "alpha_init": 1.0,
                "alpha_max": 1e10,
                "max_ls_evals": 120,
            },
        }

    @pytest.mark.parametrize(
        "name,member",
        [(name, m) for name, enum in ENUM_FIELDS.items() for m in enum],
        ids=str,
    )
    def test_dict_roundtrip_every_enum_member(self, name, member):
        cfg = SolverConfig(**{name: member})
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg
        assert SolverConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("sid", ["hz_projection", "broyden_bfgs_lf_xi0.1_projection",
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
        assert res.iters == 2
        assert len(res.trace) == 3

    def test_line_search_failure_recorded_not_raised(self):
        inst = rayleigh_instance(15, seed=7)
        cfg = SolverConfig(line_search=LineSearchConfig(max_evals=3, alpha_init=1e9, alpha_max=1e9))
        res = solve(inst, inst.initial_point(), cfg)
        assert res.converged is False
        assert res.failure_reason is FailureReason.LINE_SEARCH_FAILED

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

    def test_result_json_roundtrip(self):
        inst = rayleigh_instance(8, seed=41)
        res = solve(inst, inst.initial_point(), SolverConfig(record_trace=True))
        data = json.loads(res.to_json())
        assert data["converged"] is True
        assert data["iters"] == res.iters
        assert len(data["trace"]) == res.iters + 1
        assert "point" not in data["trace"][0]

    def test_callback_streams_all_rows(self):
        inst = rayleigh_instance(8, seed=42)
        rows = []
        res = solve(inst, inst.initial_point(), SolverConfig(), callback=rows.append)
        assert len(rows) == res.iters + 1
        assert rows[-1].gnorm == res.final_gnorm


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


def _scaled_instance(kind: str, seed: int, scale: float):
    """The seeded instance with its matrices multiplied by ``scale``."""
    if kind == "rayleigh":
        inst = rayleigh_instance(5, seed)
        return RayleighInstance(matrix=inst.matrix * scale, x0=inst.x0, seed=seed)
    inst = offdiag_instance(4, 2, 2, seed)
    mats = tuple(m * scale for m in inst.matrices)
    return OffDiagonalInstance(matrices=mats, x0=inst.x0, seed=seed)


class TestNumericalBreakdown:
    """Runs never raise on numerical breakdown; they end with a recorded reason."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 20),
        kind=st.sampled_from(["rayleigh", "offdiag"]),
        exponent=st.floats(-300.0, 307.0),
        sid=st.sampled_from(["broyden_bfgs_lf_xi0.1_dr", "broyden_preconvex_powell_xi0.8_invret",
                             "hz_proj", "dy_dr"]),
    )
    def test_scaled_problem_returns_a_result(self, seed, kind, exponent, sid):
        scale = 10.0 ** exponent
        inst = _scaled_instance(kind, seed, scale)
        cfg = config_from_id(sid, SolverConfig(tol=1e-6 * scale, max_iters=300))
        with np.errstate(all="ignore"):
            res = solve(inst, inst.initial_point(), cfg)
        assert isinstance(res, RunResult)
        assert res.converged == (res.failure_reason is None)

    @pytest.mark.parametrize("kind,scale", [("rayleigh", 1e154), ("offdiag", 1e77),
                                            ("offdiag", 1e154)])
    def test_overflow_recorded_as_non_finite(self, kind, scale):
        inst = _scaled_instance(kind, 7, scale)
        cfg = config_from_id("broyden_bfgs_lf_xi0.1_dr", SolverConfig(tol=1e-6 * scale))
        with np.errstate(all="ignore"):
            res = solve(inst, inst.initial_point(), cfg)
        assert res.failure_reason is FailureReason.NON_FINITE
        assert res.converged is False
