"""Pinned results of a tiny solve grid.

Every row was re-recorded when each line search came to start at the
quadratic-interpolation step, with the Armijo test made cancellation-free at
the rounding floor, and again when each transported image became one scaled
projection at the new iterate, and again when Rayleigh trials came to take
their products with A from the two in hand on the search's ray (the Rayleigh
rows moved; no offdiag row did), and again when the CG direction dropped its
scaling factor ``min(1, |eta| / |T(eta)|)``, 1 up to rounding for every map
(Rayleigh ``fr_dr`` moved from 191 to 182 iterations and offdiag seed 1
``hz_invret`` in its final f; no other row did); any change to iterates,
step sizes or transport arithmetic shows up here as a different iteration
count or final cost.  Together the rows cover the sphere and the oblique
manifold, all three transports (``dr``, ``proj``, ``invret``), both z modes,
both phi modes and the FR/PRP/DY/HS/HZ baselines.  Two solvers also pin a
digest of every ``RunDiagnostics`` field, restarts included.
"""

import dataclasses
import hashlib
from array import array

import pytest

from riemqn import config_from_id, generate_instance, solve

RAYLEIGH = ("rayleigh", {"n": 30})
OFFDIAG = ("offdiag", {"n": 6, "p": 3, "N": 2})

# (problem, seed, solver id, iters, failure reason, final f)
PINNED = [
    (RAYLEIGH, 0, "broyden_bfgs_lf_xi0.1_dr", 38, None, -7.6092960128641005),
    (RAYLEIGH, 0, "dy_dr", 88, None, -7.609296012864106),
    (RAYLEIGH, 1, "broyden_bfgs_lf_xi0.1_dr", 35, None, -7.585318233476431),
    (RAYLEIGH, 1, "dy_dr", 93, None, -7.5853182334764115),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_dr", 39, None, 4.579201189673046e-15),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_proj", 40, None, 2.0982201313998262e-14),
    (OFFDIAG, 0, "broyden_bfgs_lf_xi0.1_invret", 41, None, 3.2810978298813015e-14),
    (OFFDIAG, 0, "hz_dr", 50, None, 2.844733938498304e-14),
    (OFFDIAG, 0, "hz_proj", 45, None, 1.2223283228627588e-14),
    (OFFDIAG, 0, "hz_invret", 52, None, 4.147221615525144e-14),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_dr", 41, None, 2.108983949437915e-15),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_proj", 42, None, 8.517196163952623e-14),
    (OFFDIAG, 1, "broyden_bfgs_lf_xi0.1_invret", 31, None, 6.34884081121299e-14),
    (OFFDIAG, 1, "hz_dr", 40, None, 2.139352501357182e-14),
    (OFFDIAG, 1, "hz_proj", 38, None, 3.073856634994972e-14),
    (OFFDIAG, 1, "hz_invret", 36, None, 2.5252215185413474e-14),
    (RAYLEIGH, 0, "broyden_preconvex_powell_xi0.8_dr", 43, None, -7.609296012864061),
    (RAYLEIGH, 0, "broyden_preconvex_lf_xi1_invret", 38, None, -7.6092960128641005),
    (RAYLEIGH, 0, "broyden_bfgs_powell_xi1_proj", 47, None, -7.609296012864113),
    (RAYLEIGH, 0, "fr_dr", 182, None, -7.609296012864113),
    (RAYLEIGH, 0, "prp_dr", 40, None, -7.609296012864114),
    (RAYLEIGH, 0, "hs_proj", 116, None, -7.609296012864072),
    (OFFDIAG, 0, "broyden_preconvex_powell_xi0.8_dr", 43, None, 1.0459778446182908e-14),
    (OFFDIAG, 0, "broyden_preconvex_lf_xi1_invret", 52, None, 9.970386945319288e-15),
    (OFFDIAG, 0, "broyden_bfgs_powell_xi1_proj", 41, None, 1.01734390973058e-14),
    (OFFDIAG, 0, "fr_dr", 114, None, 1.9126807286263628e-14),
    (OFFDIAG, 0, "prp_dr", 37, None, 2.3150731249778646e-14),
    (OFFDIAG, 0, "hs_proj", 47, None, 9.064369319945629e-15),
]

# (problem, solver id, restarts, sha256 of "name=repr(value);" over RunDiagnostics fields,
# with each array series read as the list of its values, so the digest pins every double);
# the prp_dr digests were re-recorded when CG runs stopped building the Broyden memory,
# which left their z_margin/z_ratio empty and every other field as it was
PINNED_DIAGNOSTICS = [
    (RAYLEIGH, "broyden_preconvex_powell_xi0.8_dr", 0,
     "98835e3dc94be47d3ed59befe3b18ae67a387f06586ad56666a7be8d1b58020b"),
    (RAYLEIGH, "prp_dr", 3, "720bacb5e09d19756cb5eb59b889e811339f2b5b0eaef717b3393c3c16b06845"),
    (OFFDIAG, "broyden_preconvex_powell_xi0.8_dr", 0,
     "dab1cb314d6e6ba9d1e310baf8b7968d7b04e6914bb8411e785ee1f78d37d2c9"),
    (OFFDIAG, "prp_dr", 1, "e482f0280a103ab5242142b2fd714c134bc8addb05b707620b670f853b58de28"),
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
    values = {f.name: getattr(diag, f.name) for f in dataclasses.fields(diag)}
    text = "".join(
        f"{name}={list(value) if isinstance(value, array) else value!r};"
        for name, value in values.items()
    )
    assert diag.restarts == restarts
    assert hashlib.sha256(text.encode()).hexdigest() == digest
