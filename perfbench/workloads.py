"""The benchmark's workloads: which instances and solvers one run solves.

A run of workload ``w`` with seed ``k`` solves the instance block
``w.seed_base + k * m`` .. ``w.seed_base + (k + 1) * m - 1``, where ``m`` is
``w.instances_for(seconds)``.  Seed 0 is therefore the start of the instance
sequence of the shipped config, and every seed gets a disjoint block.  The
block size is fixed by ``--seconds`` and the per-instance cost measured on
the reference machine (2-core Xeon, one BLAS thread), so a run does a fixed
amount of work that takes about ``--seconds`` there.  Both sides of a
comparison then solve exactly the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from gauge import MATVECS, SMALL_OPS, Kernel

# The 14 solvers of configs/rayleigh_profile.json, pinned here so that a
# change to the shipped config cannot silently change the benchmark.
RAYLEIGH_SOLVERS = (
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

OFFDIAG_SOLVERS = tuple(
    f"{engine}_{transport}"
    for engine in (
        "broyden_bfgs_lf_xi0.1",
        "broyden_bfgs_lf_xi1",
        "broyden_preconvex_powell_xi0.8",
        "dy",
        "hz",
    )
    for transport in ("dr", "proj", "invret")
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    dims: dict
    seed_base: int
    solvers: tuple[str, ...]
    # wall seconds one instance (all solvers) takes on the reference machine
    instance_seconds: float
    why: str
    # the host speed gauge's kernel: what this workload's solves spend time on
    gauge: Kernel = SMALL_OPS

    def instances_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.instance_seconds))

    def config(self, seed: int, instances: int) -> dict:
        """JSON config in the schema ``riemqn-bench run --config`` reads."""
        return {
            "problem": {
                "kind": self.kind,
                "dims": dict(self.dims),
                "instances": instances,
                "seed_base": self.seed_base + seed * instances,
            },
            "solvers": list(self.solvers),
            "tol": 1e-6,
            "max_iters": 10000,
            "line_search": {"c1": 1e-4, "c2": 0.9},
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rayleigh-grid",
            kind="rayleigh",
            dims={"n": 100},
            seed_base=20250,
            solvers=RAYLEIGH_SOLVERS,
            instance_seconds=0.62,
            why=(
                "the shipped desk-scale Rayleigh grid, Sphere(100); Point/Tangent "
                "wrapper work outweighs the A.x kernel, so hot-path changes show here"
            ),
        ),
        Workload(
            name="rayleigh-large",
            kind="rayleigh",
            dims={"n": 1000},
            seed_base=20250,
            solvers=RAYLEIGH_SOLVERS,
            instance_seconds=12.5,
            why=(
                "the same grid on Sphere(1000), an 8 MB matrix: cost/grad dominate and "
                "set-up is visible; keeps the known line_search_failed runs in view"
            ),
            gauge=MATVECS,
        ),
        Workload(
            name="offdiag-transports",
            kind="offdiag",
            dims={"n": 10, "p": 5, "N": 5},
            seed_base=30500,
            solvers=OFFDIAG_SOLVERS,
            instance_seconds=6.5,
            why=(
                "Oblique(10,5), N=5, five solvers x three transports: the only workload "
                "that runs the column-wise maps, the batched cost, proj and invret"
            ),
        ),
    )
}
