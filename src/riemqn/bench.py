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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .problems import ProblemInstance, check_dims, generate_instance
from .profiles import ProfileTable, performance_profile
from .schema import integer, positive_integer, read_object
from .solver import FailureReason, RunResult, SolverConfig, config_from_id, solve, solver_id


def _as_is(value, key: str):
    return value


# problem key -> check; kind and dims are checked together by check_dims
_PROBLEM_KEYS = {"kind": _as_is, "dims": _as_is, "instances": positive_integer,
                 "seed_base": integer}


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
    keys = ("problem", "solvers", "tol", "max_iters", "line_search")
    read_object(data, dict.fromkeys(keys, _as_is), "config")
    missing = {"problem", "solvers"} - set(data)
    if missing:
        raise ConfigError(f"config missing required keys: {sorted(missing)}")
    prob = read_object(data["problem"], _PROBLEM_KEYS, "problem", required=True)
    prob["dims"] = check_dims(prob["kind"], prob["dims"])
    solver_entries = data["solvers"]
    if not isinstance(solver_entries, list) or not solver_entries:
        raise ConfigError("'solvers' must be a non-empty list")

    base = SolverConfig.from_dict(
        {key: data[key] for key in ("tol", "max_iters", "line_search") if key in data}
    )
    solvers = []
    for i, entry in enumerate(solver_entries):
        try:
            solvers.append(config_from_id(entry, base) if isinstance(entry, str)
                           else SolverConfig.from_dict(entry, base))
        except ConfigError as exc:
            named = "" if isinstance(entry, str) else f" {entry!r}"  # an id's error names it
            raise ConfigError(f"solvers[{i}]{named}: {exc}") from exc
    ids = [solver_id(cfg) for cfg in solvers]
    duplicates = sorted({sid for sid in ids if ids.count(sid) > 1})
    if duplicates:
        raise ConfigError(f"duplicate solver ids: {duplicates}")
    return BenchConfig(**prob, solvers=tuple(solvers))


def load_config(path: str | Path) -> BenchConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def _count(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


_flag = {"0": False, "1": True}.__getitem__


def _reason(text: str) -> str:
    return text and FailureReason(text).value


@dataclass(frozen=True)
class RunRecord:
    """A ``runs.csv`` row: each field is a column, in file order, with its format and parse."""

    instance: int = field(metadata={"csv": ("d", _count)})
    solver: str = field(metadata={"csv": ("s", str)})
    converged: bool = field(metadata={"csv": ("d", _flag)})
    iters: int = field(metadata={"csv": ("d", _count)})
    time_ms: float = field(metadata={"csv": (".3f", float)})
    final_f: float = field(metadata={"csv": (".17g", float)})
    final_gnorm: float = field(metadata={"csv": (".17g", float)})
    failure_reason: str = field(metadata={"csv": ("s", _reason)})


# (column, format spec, parse) in file order
_RUNS_COLUMNS = [(f.name, *f.metadata["csv"]) for f in fields(RunRecord)]
RUNS_HEADER = [name for name, _, _ in _RUNS_COLUMNS]


def _record(instance_index: int, sid: str, result: RunResult) -> RunRecord:
    return RunRecord(
        instance=instance_index,
        solver=sid,
        converged=result.converged,
        iters=result.iters,
        # rounded as runs.csv stores it, so profiles from a reread file match
        time_ms=round(result.elapsed * 1e3, 3),
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
            writer.writerow([format(getattr(r, name), spec) for name, spec, _ in _RUNS_COLUMNS])


def read_runs_csv(path: str | Path) -> list[RunRecord]:
    """The records of a ``runs.csv`` file, read as strictly as a config: the header is exactly
    ``RUNS_HEADER``, each value parses by its column, a row is converged exactly when its
    failure_reason is empty, and no (instance, solver) pair repeats."""
    records: dict[tuple[int, str], RunRecord] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != RUNS_HEADER:
                raise ConfigError(f"{path}: the header must be {','.join(RUNS_HEADER)}")
            for row in reader:
                where = f"{path} line {reader.line_num}"
                if len(row) != len(RUNS_HEADER):
                    raise ConfigError(f"{where}: {len(row)} fields, expected {len(RUNS_HEADER)}")
                values = []
                for (name, _, parse), text in zip(_RUNS_COLUMNS, row):
                    try:
                        values.append(parse(text))
                    except (KeyError, ValueError) as exc:
                        raise ConfigError(f"{where}: bad {name} {text!r}") from exc
                record = RunRecord(*values)
                if record.converged != (record.failure_reason == ""):
                    raise ConfigError(f"{where}: converged {int(record.converged)} with "
                                      f"failure_reason {record.failure_reason!r}")
                key = (record.instance, record.solver)
                if key in records:
                    raise ConfigError(f"{where}: repeats instance {key[0]}, solver {key[1]}")
                records[key] = record
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read runs file {path}: {exc}") from exc
    return list(records.values())


def write_profiles(records: list[RunRecord], out_dir: Path) -> dict[str, ProfileTable]:
    tables = {}
    for measure, name in (("iters", "profile_iters.csv"), ("time", "profile_time.csv")):
        table = performance_profile(profile_costs(records, measure))
        (out_dir / name).write_text(table.to_csv())
        tables[measure] = table
    return tables


def run_benchmark(config: BenchConfig, out_dir: str | Path) -> dict:
    """Run the grid, write runs.csv, both profile CSVs, and summary.json.

    The summary's ``profile_at_1`` is read from the iteration-count profile.
    """
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
        "solvers": {
            sid: {
                "converged": sum(r.converged for r in rs),
                "runs": len(rs),
                "total_iters": sum(r.iters for r in rs),
                "profile_at_1": tables["iters"].value(sid, 1.0),
            }
            for sid, rs in sorted(by_solver.items())
        },
        "elapsed_s": time.perf_counter() - t0,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
