"""Pinned results of a tiny solve grid.

Every row was re-recorded when each line search came to start at the
quadratic-interpolation step, with the Armijo test made cancellation-free at
the rounding floor; any change to iterates,
step sizes or transport arithmetic shows up here as a different iteration
count or final cost.  Together the rows cover the sphere and the oblique
manifold, all three transports (``dr``, ``proj``, ``invret``), both z modes,
both phi modes and the FR/PRP/DY/HS/HZ baselines.  Two solvers also pin a
digest of every ``RunDiagnostics`` field, restarts included.
"""

import dataclasses
import hashlib

import pytest

from riemqn import config_from_id, generate_instance, solve

RAYLEIGH = ("rayleigh", {"n": 30})
OFFDIAG = ("offdiag", {"n": 6, "p": 3, "N": 2})

# (problem, seed, solver id, iters, failure reason, final f)
PINNED = [
    (RAYLEIGH, 0, "broyden_bfgs_lf_xi0.1_dr", 38, None, -7.609296012864103),
    (RAYLEIGH, 0, "dy_dr", 83, None, -7.609296012864089),
    (RAYLEIGH, 1, "broyden_bfgs_lf_xi0.1_dr", 35, None, -7.585318233476433),
    (RAYLEIGH, 1, "dy_dr", 91, None, -7.585318233476426),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_dr", 39, None, 4.579206376482988e-15),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_proj", 40, None, 2.098219823243023e-14),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_invret", 41, None, 3.2810983496868125e-14),
    (OFFDIAG, 0, "hz_dr", 50, None, 2.8436322223876146e-14),
    (OFFDIAG, 0, "hz_proj", 45, None, 1.2223283228627588e-14),
    (OFFDIAG, 0, "hz_invret", 52, None, 4.132273367965179e-14),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_dr", 41, None, 2.0875183161017373e-15),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_proj", 42, None, 8.517313247131523e-14),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_invret", 31, None, 6.348840866991567e-14),
    (OFFDIAG, 1, "hz_dr", 40, None, 2.139342765810988e-14),
    (OFFDIAG, 1, "hz_proj", 38, None, 3.073856634994972e-14),
    (OFFDIAG, 1, "hz_invret", 36, None, 2.5252213414581787e-14),
    (RAYLEIGH, 0, "broyden_preconvex_powell_xi0.8_dr", 43, None, -7.60929601286406),
    (RAYLEIGH, 0, "broyden_preconvex_lf_xi1_invret", 39, None, -7.609296012864101),
    (RAYLEIGH, 0, "broyden_bfgs_powell_xi1_proj", 45, None, -7.609296012864105),
    (RAYLEIGH, 0, "fr_dr", 97, None, -7.609296012864077),
    (RAYLEIGH, 0, "prp_dr", 39, None, -7.609296012864101),
    (RAYLEIGH, 0, "hs_proj", 100, None, -7.609296012864033),
    (OFFDIAG, 0, "broyden_preconvex_powell_xi0.8_dr", 43, None, 1.0466101988551378e-14),
    (OFFDIAG, 0, "broyden_preconvex_lf_xi1_invret", 52, None, 9.970347941831673e-15),
    (OFFDIAG, 0, "broyden_bfgs_powell_xi1_proj", 41, None, 1.017343919877126e-14),
    (OFFDIAG, 0, "fr_dr", 127, None, 2.2834086440473687e-14),
    (OFFDIAG, 0, "prp_dr", 37, None, 2.3154392261750674e-14),
    (OFFDIAG, 0, "hs_proj", 47, None, 9.064369319945629e-15),
]

# (problem, solver id, restarts, sha256 of "name=repr(value);" over RunDiagnostics fields)
PINNED_DIAGNOSTICS = [
    (RAYLEIGH, "broyden_preconvex_powell_xi0.8_dr", 0,
     "74a5810e110f26a30e8ad626333aa13481033d4d8a4a54397241eda3d0303e8b"),
    (RAYLEIGH, "prp_dr", 2, "b82e4eecff09625fb7246224e07bb117758cc99f0e89fbeff45d887c7bea832e"),
    (OFFDIAG, "broyden_preconvex_powell_xi0.8_dr", 0,
     "de422544cde130edf47176feddc5e213d470c5fd19e0213d3a3f3bb5af91839d"),
    (OFFDIAG, "prp_dr", 1, "f27e1ac0cb25757cb566ea86a4406e91bb29242e06631c51eaa23c1e1f4b8075"),
]


def _run(problem, seed, sid):
    kind, dims = problem
    inst = generate_instance(kind, dims, seed)
    return solve(inst, inst.initial_point(), config_from_id(sid))


@pytest.mark.parametrize(
    "problem,seed,sid,iters,failure,final_f",
    PINNED,
    ids=[f"{p[0]}-{seed}-{sid}" for p, seed, sid, *_ in PINNED],
)
def test_pinned_run(problem, seed, sid, iters, failure, final_f):
    result = _run(problem, seed, sid)
    reason = result.failure_reason.value if result.failure_reason else None
    assert (result.iters, reason) == (iters, failure)
    assert result.final_f == pytest.approx(final_f, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "problem,sid,restarts,digest",
    PINNED_DIAGNOSTICS,
    ids=[f"{p[0]}-0-{sid}" for p, sid, *_ in PINNED_DIAGNOSTICS],
)
def test_pinned_diagnostics(problem, sid, restarts, digest):
    diag = _run(problem, 0, sid).diagnostics
    text = "".join(f"{f.name}={getattr(diag, f.name)!r};" for f in dataclasses.fields(diag))
    assert diag.restarts == restarts
    assert hashlib.sha256(text.encode()).hexdigest() == digest
