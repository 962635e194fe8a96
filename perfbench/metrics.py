"""Metric definitions and their computation from one measured pass.

``END_TO_END`` and ``PER_LAYER`` are the metrics the JSON result line
carries; ``BENCHMARK.json`` lists the same names, units and bounds.  Every
other figure is printed as a text line above the result: the figures that
depend on how hard a seed's instances are (solves per second, solve-time
median and tail, iterations per solve, failed share), which vary between
seeds by more than any usable regression bound, and the per-layer figures
that are zero or undefined on some workload (the proj and invret transports
never run on the Rayleigh workloads).

The gated times, ``iter_us`` and ``setup_s``, are scaled to the reference
speed of the host gauge (gauge.py), so that the host's slow phases do not
show as changes of the program.  ``iter_us`` also weighs every solver
equally: it is the mean over solvers of each solver's solve time per
iteration, so it does not move with the share of iterations that a seed's
instances give to the cheap and the dear solvers.  The raw figures, summed
wall time over summed iterations and the median raw set-up, are printed as
``iter_us.raw`` and ``setup_s.raw``.
"""

from __future__ import annotations

import statistics
from collections import Counter

from riemqn.solver import solver_id

# (name, unit, better, bound)
END_TO_END = (
    ("iter_us", "us", "lower", 0.25),
    ("cost_evals_per_iter", "count", "lower", 0.2),
    ("grad_evals_per_iter", "count", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

# (name, unit, better)
PER_LAYER = (
    ("problems.cost.calls_per_iter", "count", "lower"),
    ("problems.cost.us_per_call", "us", "lower"),
    ("problems.grad.calls_per_iter", "count", "lower"),
    ("problems.grad.us_per_call", "us", "lower"),
    ("problems.share", "ratio", "higher"),
    ("rng.normal.s", "s", "lower"),
    ("problems.generate_instance.s", "s", "lower"),
    ("manifolds.retract.calls_per_iter", "count", "lower"),
    ("manifolds.retract.us_per_call", "us", "lower"),
    ("manifolds.transport.dr.calls_per_iter", "count", "lower"),
    ("manifolds.transport.dr.us_per_call", "us", "lower"),
    ("manifolds.inner.calls_per_iter", "count", "lower"),
    ("manifolds.inner.us_per_call", "us", "lower"),
    ("manifolds.norm.calls_per_iter", "count", "lower"),
    ("manifolds.project_tangent.calls_per_iter", "count", "lower"),
    ("manifolds.point_checks_per_iter", "count", "lower"),
    ("manifolds.tangents_per_iter", "count", "lower"),
    ("manifolds.share", "ratio", "lower"),
    ("directions.broyden.us_per_call", "us", "lower"),
    ("directions.compute_z.us_per_call", "us", "lower"),
    ("directions.cg.us_per_call", "us", "lower"),
    ("linesearch.search_step.self_us", "us", "lower"),
    ("linesearch.probes_per_step", "count", "lower"),
    ("linesearch.first_probe_accept_frac", "ratio", "higher"),
    ("solver.self_us_per_iter", "us", "lower"),
    ("bench.write_s", "s", "lower"),
    ("profiles.performance_profile.ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# every end-to-end figure printed as a text line, gated or not
REPORTED = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "iters_per_solve": "count",
    "failed_frac": "ratio",
    "linesearch.probes_per_step": "count",
    "iter_us.raw": "us",
    "setup_s.raw": "s",
    "gauge.factor": "ratio",
}

TRANSPORT_KINDS = ("dr", "proj", "invret")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples above it."""
    n = len(samples)
    ordered = sorted(samples)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def scaled_iter_us(runs, gauge) -> float:
    """Mean over solvers of scaled solve µs per iteration."""
    seconds, iters = Counter(), Counter()
    for r in runs:
        sid = solver_id(r.cfg)
        seconds[sid] += r.seconds * gauge.factor(r.started, r.started + r.seconds)
        iters[sid] += r.result.iters
    return 1e6 * statistics.fmean(seconds[c] / iters[c] for c in iters if iters[c])


def scaled_setups(setups: list[tuple[float, float]], gauge) -> list[float]:
    """Scaled seconds of each set-up, from its (start, seconds)."""
    return [s * gauge.factor(t0, t0 + s) for t0, s in setups]


def end_to_end(probe, pass_wall: float, setups: list[tuple[float, float]],
               peak_rss_mb: float, gauge) -> dict:
    """Every end-to-end figure of an untraced pass, gated or not.

    ``setups`` holds (start, seconds) of each set-up; ``gauge`` sampled the
    pass and the set-ups.
    """
    runs = probe.runs
    solves = len(runs)
    iters = sum(r.result.iters for r in runs)
    solve_s = [r.seconds for r in runs]
    failed = sum(not r.result.converged for r in runs)
    tail_s, tail_pct = tail(solve_s)
    return {
        "iter_us": scaled_iter_us(runs, gauge),
        "cost_evals_per_iter": probe.cost_evals[0] / iters,
        "grad_evals_per_iter": probe.grad_evals[0] / iters,
        "setup_s": statistics.median(scaled_setups(setups, gauge)),
        "peak_rss_mb": peak_rss_mb,
        "iter_us.raw": 1e6 * sum(solve_s) / iters,
        "setup_s.raw": statistics.median(s for _, s in setups),
        "gauge.factor": statistics.median(gauge.factor(r.started, r.started) for r in runs),
        "solves_per_s": solves / (pass_wall - probe.generate_seconds - probe.gauge_seconds),
        "solve_ms_p50": 1e3 * statistics.median(solve_s),
        "solve_ms_tail": 1e3 * tail_s,
        "solve_ms_tail.percentile": tail_pct,
        "solves": solves,
        "iters": iters,
        "iters_per_solve": iters / solves,
        "failed_frac": failed / solves,
        "linesearch.probes_per_step": probe.probes / probe.steps,
    }


def per_layer(tracer, setup_tracer, runs, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer figure of a traced pass, gated or not."""
    iters = sum(r.result.iters for r in runs)
    calls, total, own = tracer.calls, tracer.total_ns, tracer.self_ns

    def per_iter(name):
        return calls[name] / iters

    def us_per_call(*names, per=None):
        n = calls[per or names[0]]
        return sum(total[x] for x in names) / n / 1e3 if n else float("nan")

    root_ns = total["bench.run_benchmark"]
    out = {
        "problems.cost.calls_per_iter": per_iter("problems.cost"),
        "problems.cost.us_per_call": us_per_call("problems.cost"),
        "problems.grad.calls_per_iter": per_iter("problems.grad"),
        "problems.grad.us_per_call": us_per_call("problems.grad"),
        "problems.share": tracer.layer_self_ns("problems") / root_ns,
        "rng.normal.s": setup_tracer.total_ns["rng.normal"] / 1e9,
        "problems.generate_instance.s": setup_tracer.total_ns["problems.generate_instance"] / 1e9,
        "manifolds.retract.calls_per_iter": per_iter("manifolds.retract"),
        "manifolds.retract.us_per_call": us_per_call("manifolds.retract"),
    }
    for kind in TRANSPORT_KINDS:
        names = [n for n in calls if n.startswith("manifolds.transport") and n.endswith("." + kind)]
        n_calls = sum(calls[n] for n in names)
        out[f"manifolds.transport.{kind}.calls_per_iter"] = n_calls / iters
        out[f"manifolds.transport.{kind}.us_per_call"] = (
            sum(total[n] for n in names) / n_calls / 1e3 if n_calls else float("nan")
        )
    search = "linesearch.search_step"
    steps = calls[search]
    out.update({
        "manifolds.inner.calls_per_iter": per_iter("manifolds.inner"),
        "manifolds.inner.us_per_call": us_per_call("manifolds.inner"),
        "manifolds.norm.calls_per_iter": per_iter("manifolds.norm"),
        "manifolds.project_tangent.calls_per_iter": per_iter("manifolds.project_tangent"),
        "manifolds.point_checks_per_iter": tracer.point_checks[0] / iters,
        "manifolds.tangents_per_iter": tracer.tangents[0] / iters,
        "manifolds.share": tracer.layer_self_ns("manifolds") / root_ns,
        "directions.broyden.us_per_call": us_per_call(
            "directions.schedule_params", "directions.broyden_direction",
            per="directions.broyden_direction"),
        "directions.compute_z.us_per_call": us_per_call("directions.compute_z"),
        "directions.cg.us_per_call": us_per_call(
            "directions.cg_beta", "directions.cg_direction", per="directions.cg_beta"),
        "directions.z_modified_frac": tracer.flags["directions.compute_z"] / calls["directions.compute_z"],
        "solver.restarts_per_kiter": 1e3 * sum(r.result.diagnostics.restarts for r in runs) / iters,
        "linesearch.search_step.self_us": own[search] / steps / 1e3,
        "linesearch.probes_per_step": tracer.edges[(search, "problems.cost")] / steps,
        "linesearch.first_probe_accept_frac": tracer.single_child[(search, "problems.cost")] / steps,
        "linesearch.fail_frac": tracer.failed[search] / steps,
        "solver.self_us_per_iter": own["solver.solve"] / iters / 1e3,
        "bench.write_s": (total["bench.write_runs_csv"] + total["bench.write_profiles"]) / 1e9,
        "profiles.performance_profile.ms": us_per_call("profiles.performance_profile") / 1e3,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    for layer in ("rng", "directions", "linesearch", "solver", "bench", "profiles"):
        out[f"{layer}.share"] = tracer.layer_self_ns(layer) / root_ns
    return out


def layer_table(tracer, iters: int) -> list[str]:
    """One text line per span name: calls per iteration, µs per call, self µs per call."""
    lines = []
    for name in sorted(tracer.calls, key=lambda n: -tracer.self_ns[n]):
        c = tracer.calls[name]
        lines.append(
            f"span {name:<44} calls/iter {c / iters:10.4f}  us/call {tracer.total_ns[name] / c / 1e3:10.3f}"
            f"  self_us/call {tracer.self_ns[name] / c / 1e3:10.3f}  self_s {tracer.self_ns[name] / 1e9:8.4f}"
        )
    return lines
