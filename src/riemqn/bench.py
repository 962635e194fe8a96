"""Batch experiment driver.

Runs a seeded instance grid against a solver grid, writes one CSV row per
(instance, solver) run, and derives iteration-count and wall-time performance
profiles.  Output ordering is sorted by (instance index, solver id), so the
files are deterministic regardless of scheduling; only the timing columns
vary between reruns.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .problems import ProblemInstance, check_dims, generate_instance
from .profiles import ProfileTable, performance_profile
from .schema import integer
from .solver import RunResult, SolverConfig, config_from_id, solve, solver_id

RUNS_HEADER = [
    "instance",
    "solver",
    "converged",
    "iters",
    "time_ms",
    "final_f",
    "final_gnorm",
    "failure_reason",
]


@dataclass(frozen=True)
class BenchConfig:
    kind: str
    dims: dict
    instances: int
    seed_base: int
    solvers: tuple[SolverConfig, ...]

    @property
    def solver_ids(self) -> tuple[str, ...]:
        return tuple(solver_id(s) for s in self.solvers)


def parse_config(data: Mapping) -> BenchConfig:
    """Validate and resolve a benchmark config mapping."""
    if not isinstance(data, Mapping):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - {"problem", "solvers", "tol", "max_iters", "line_search"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"problem", "solvers"} - set(data)
    if missing:
        raise ConfigError(f"config missing required keys: {sorted(missing)}")
    prob, solver_entries = data["problem"], data["solvers"]
    if not isinstance(prob, Mapping):
        raise ConfigError("'problem' must be an object")
    keys = {"kind", "dims", "instances", "seed_base"}
    if set(prob) != keys:
        raise ConfigError(f"'problem' needs exactly the keys {sorted(keys)}, got {list(prob)}")
    dims = check_dims(prob["kind"], prob["dims"])
    instances = integer(prob["instances"], "instances")
    seed_base = integer(prob["seed_base"], "seed_base")
    if instances < 1:
        raise ConfigError("'instances' must be at least 1")
    if not isinstance(solver_entries, list) or not solver_entries:
        raise ConfigError("'solvers' must be a non-empty list")

    base = SolverConfig.from_dict(
        {key: data[key] for key in ("tol", "max_iters", "line_search") if key in data}
    )
    solvers = tuple(
        config_from_id(e, base) if isinstance(e, str) else SolverConfig.from_dict(e, base)
        for e in solver_entries
    )
    ids = [solver_id(cfg) for cfg in solvers]
    duplicates = sorted({sid for sid in ids if ids.count(sid) > 1})
    if duplicates:
        raise ConfigError(f"duplicate solver ids: {duplicates}")
    return BenchConfig(
        kind=prob["kind"],
        dims=dims,
        instances=instances,
        seed_base=seed_base,
        solvers=solvers,
    )


def load_config(path: str | Path) -> BenchConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


@dataclass(frozen=True)
class RunRecord:
    instance: int
    solver: str
    converged: bool
    iters: int
    time_ms: float
    final_f: float
    final_gnorm: float
    failure_reason: str


def _record(instance_index: int, sid: str, result: RunResult) -> RunRecord:
    return RunRecord(
        instance=instance_index,
        solver=sid,
        converged=result.converged,
        iters=result.iters,
        time_ms=result.elapsed * 1e3,
        final_f=result.final_f,
        final_gnorm=result.final_gnorm,
        failure_reason=result.failure_reason.value if result.failure_reason else "",
    )


def run_grid(config: BenchConfig) -> list[RunRecord]:
    """Execute every (instance, solver) pair and return sorted records."""
    instances: list[ProblemInstance] = [
        generate_instance(config.kind, config.dims, config.seed_base + i)
        for i in range(config.instances)
    ]
    records = [
        _record(i, solver_id(cfg), solve(inst, inst.initial_point(), cfg))
        for i, inst in enumerate(instances)
        for cfg in config.solvers
    ]
    records.sort(key=lambda r: (r.instance, r.solver))
    return records


def _problem_id(index: int) -> str:
    return f"inst{index:04d}"


def profile_costs(records: list[RunRecord], measure: str) -> dict:
    """Nested cost table for ``performance_profile``; failures cost infinity."""
    if measure not in ("iters", "time"):
        raise ConfigError(f"unknown measure: {measure!r}")
    costs: dict = {}
    for r in records:
        if r.converged:
            t = float(r.iters) if measure == "iters" else r.time_ms
        else:
            t = math.inf
        costs.setdefault(_problem_id(r.instance), {})[r.solver] = t
    return costs


def write_runs_csv(records: list[RunRecord], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.instance,
                    r.solver,
                    int(r.converged),
                    r.iters,
                    f"{r.time_ms:.3f}",
                    f"{r.final_f:.17g}",
                    f"{r.final_gnorm:.17g}",
                    r.failure_reason,
                ]
            )


def read_runs_csv(path: str | Path) -> list[RunRecord]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or set(RUNS_HEADER) - set(reader.fieldnames):
                raise ConfigError(f"{path} is not a runs.csv file")
            return [
                RunRecord(
                    instance=int(row["instance"]),
                    solver=row["solver"],
                    converged=bool(int(row["converged"])),
                    iters=int(row["iters"]),
                    time_ms=float(row["time_ms"]),
                    final_f=float(row["final_f"]),
                    final_gnorm=float(row["final_gnorm"]),
                    failure_reason=row["failure_reason"],
                )
                for row in reader
            ]
    except OSError as exc:
        raise ConfigError(f"cannot read runs file: {exc}") from exc
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed runs file {path}: {exc}") from exc


def write_profiles(records: list[RunRecord], out_dir: Path) -> dict[str, ProfileTable]:
    tables = {}
    for measure, name in (("iters", "profile_iters.csv"), ("time", "profile_time.csv")):
        table = performance_profile(profile_costs(records, measure))
        (out_dir / name).write_text(table.to_csv())
        tables[measure] = table
    return tables


def run_benchmark(config: BenchConfig, out_dir: str | Path, measure: str = "iters") -> dict:
    """Run the grid, write runs.csv, both profile CSVs, and summary.json."""
    if measure not in ("iters", "time"):
        raise ConfigError(f"unknown measure: {measure!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    records = run_grid(config)
    write_runs_csv(records, out / "runs.csv")
    tables = write_profiles(records, out)

    by_solver: dict[str, list[RunRecord]] = {}
    for r in records:
        by_solver.setdefault(r.solver, []).append(r)
    summary = {
        "problem": {
            "kind": config.kind,
            "dims": config.dims,
            "instances": config.instances,
            "seed_base": config.seed_base,
        },
        "measure": measure,
        "solvers": {
            sid: {
                "converged": sum(r.converged for r in rs),
                "runs": len(rs),
                "total_iters": sum(r.iters for r in rs),
                "profile_at_1": tables[measure].value(sid, 1.0),
            }
            for sid, rs in sorted(by_solver.items())
        },
        "elapsed_s": time.perf_counter() - t0,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
