"""Pinned results of a tiny solve grid.

The first sixteen rows were recorded from the solver before the step
transports were merged into one call, the rest before the curvature pair
<s, z>, <z, z> came to be measured once per step; any change to iterates,
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
    (RAYLEIGH, 0, "broyden_bfgs_lf_xi0.1_dr", 37, None, -7.609296012864111),
    (RAYLEIGH, 0, "dy_dr", 69, None, -7.609296012864056),
    (RAYLEIGH, 1, "broyden_bfgs_lf_xi0.1_dr", 34, None, -7.585318233476428),
    (RAYLEIGH, 1, "dy_dr", 102, None, -7.585318233476384),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_dr", 42, None, 3.554616424853814e-15),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_proj", 49, None, 9.526377176007636e-16),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_invret", 50, None, 1.87405427470128e-14),
    (OFFDIAG, 0, "hz_dr", 71, None, 3.0255234602056553e-15),
    (OFFDIAG, 0, "hz_proj", 64, None, 1.7394523857950554e-14),
    (OFFDIAG, 0, "hz_invret", 60, None, 6.433449368796975e-15),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_dr", 33, None, 1.583956510475786e-14),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_proj", 30, None, 3.044494876315731e-15),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_invret", 714, None, 1.449969240623822e-14),
    (OFFDIAG, 1, "hz_dr", 75, None, 2.7355443566206044e-14),
    (OFFDIAG, 1, "hz_proj", 934, None, 1.563210555505684e-14),
    (OFFDIAG, 1, "hz_invret", 41, None, 2.9982281229441925e-14),
    (RAYLEIGH, 0, "broyden_preconvex_powell_xi0.8_dr", 46, None, -7.6092960128641165),
    (RAYLEIGH, 0, "broyden_preconvex_lf_xi1_invret", 67, None, -7.609296012864108),
    (RAYLEIGH, 0, "broyden_bfgs_powell_xi1_proj", 53, None, -7.609296012864106),
    (RAYLEIGH, 0, "fr_dr", 112, None, -7.609296012864083),
    (RAYLEIGH, 0, "prp_dr", 81, "line_search_failed", -7.60929601286365),
    (RAYLEIGH, 0, "hs_proj", 85, None, -7.609296012864102),
    (OFFDIAG, 0, "broyden_preconvex_powell_xi0.8_dr", 41, None, 1.1854409060599406e-14),
    (OFFDIAG, 0, "broyden_preconvex_lf_xi1_invret", 55, None, 5.56440579122115e-15),
    (OFFDIAG, 0, "broyden_bfgs_powell_xi1_proj", 77, None, 5.5238438058447915e-15),
    (OFFDIAG, 0, "fr_dr", 98, None, 4.0312416185695334e-14),
    (OFFDIAG, 0, "prp_dr", 50, None, 1.1415050070074907e-14),
    (OFFDIAG, 0, "hs_proj", 213, None, 7.864939700612498e-15),
]

# (problem, solver id, restarts, sha256 of "name=repr(value);" over RunDiagnostics fields)
PINNED_DIAGNOSTICS = [
    (RAYLEIGH, "broyden_preconvex_powell_xi0.8_dr", 0,
     "7bdd17e085bc5189394de229b5efa994e2b9a424d2279da3984a303da887286c"),
    (RAYLEIGH, "prp_dr", 43, "bccb5b7c1d0b898214b5867895735802126ea62f137accb429c6dcc8a19b2524"),
    (OFFDIAG, "broyden_preconvex_powell_xi0.8_dr", 0,
     "8443e9e465af8bbd64c00b417015d08b7bf40cad3dd85b8756678a0205f51405"),
    (OFFDIAG, "prp_dr", 7, "4f3af06b2e209a5fe14fff262de45d19ff908d0f906fc5668cb09dfcdbb0a458"),
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
