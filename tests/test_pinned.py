"""Pinned results of a tiny solve grid.

The expected values were recorded from the solver before the step transports
were merged into one call; any change to iterates, step sizes or transport
arithmetic shows up here as a different iteration count or final cost.
Together the rows cover the sphere and the oblique manifold and all three
transports (``dr``, ``proj``, ``invret``).
"""

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
]


@pytest.mark.parametrize(
    "problem,seed,sid,iters,failure,final_f",
    PINNED,
    ids=[f"{p[0]}-{seed}-{sid}" for p, seed, sid, *_ in PINNED],
)
def test_pinned_run(problem, seed, sid, iters, failure, final_f):
    kind, dims = problem
    inst = generate_instance(kind, dims, seed)
    result = solve(inst, inst.initial_point(), config_from_id(sid))
    reason = result.failure_reason.value if result.failure_reason else None
    assert (result.iters, reason) == (iters, failure)
    assert result.final_f == pytest.approx(final_f, rel=1e-12, abs=0.0)
