"""Benchmark command line: run experiment grids, rebuild profiles, solve once."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import load_config, read_runs_csv, run_benchmark, write_profiles
from .errors import ConfigError, RiemqnError
from .problems import KINDS, generate_instance
from .solver import IterationTrace, SolverConfig, config_from_id, solve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemqn-bench",
        description="Benchmark driver for the Riemannian quasi-Newton/CG solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an instance x solver grid from a JSON config")
    run_p.add_argument("--config", required=True, help="JSON config file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--measure", choices=("iters", "time"), default="iters")

    prof_p = sub.add_parser("profile", help="rebuild performance profiles from runs.csv")
    prof_p.add_argument("--runs", required=True, help="runs.csv produced by 'run'")
    prof_p.add_argument("--out", required=True, help="output directory")

    solve_p = sub.add_parser("solve", help="single run with the trace streamed as CSV")
    solve_p.add_argument("--problem", choices=sorted(KINDS), required=True)
    solve_p.add_argument("--n", type=int, required=True)
    solve_p.add_argument("--p", type=int, default=5, help="columns (offdiag only)")
    solve_p.add_argument("--matrices", type=int, default=5, help="matrix count (offdiag only)")
    solve_p.add_argument("--seed", type=int, required=True)
    solve_p.add_argument("--solver", required=True, help="solver id, e.g. broyden_bfgs_lf_xi0.1_dr")
    solve_p.add_argument("--tol", type=float, default=1e-6)
    solve_p.add_argument("--max-iters", type=int, default=10000)
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    summary = run_benchmark(config, args.out, measure=args.measure)
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_profile(args) -> int:
    records = read_runs_csv(args.runs)
    if not records:
        raise ConfigError(f"runs file {args.runs} contains no records")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_profiles(records, out)
    return 0


def _cmd_solve(args) -> int:
    keys, _ = KINDS[args.problem]  # in factory-argument order, as the flags are
    dims = dict(zip(keys, (args.n, args.p, args.matrices)))
    instance = generate_instance(args.problem, dims, args.seed)
    base = SolverConfig(tol=args.tol, max_iters=args.max_iters)
    cfg = config_from_id(args.solver, base=base)

    print(IterationTrace.CSV_HEADER)

    def stream(row: IterationTrace) -> None:
        print(row.csv_row())

    result = solve(instance, instance.initial_point(), cfg, callback=stream)
    print(result.to_json(include_trace=False), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "profile": _cmd_profile, "solve": _cmd_solve}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RiemqnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
