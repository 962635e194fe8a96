import csv
import json
from pathlib import Path

import numpy as np
import pytest

from riemqn.bench import (
    load_config,
    parse_config,
    profile_costs,
    read_runs_csv,
    run_benchmark,
    run_grid,
)
from riemqn.cli import main
from riemqn.errors import ConfigError


def small_config(tmp_path: Path, instances=3, solvers=None) -> Path:
    data = {
        "problem": {"kind": "rayleigh", "dims": {"n": 12}, "instances": instances, "seed_base": 500},
        "solvers": solvers or ["broyden_bfgs_lf_xi0.1_dr", "dy_dr"],
        "tol": 1e-6,
        "max_iters": 2000,
        "line_search": {"c1": 1e-4, "c2": 0.9},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        assert cfg.instances == 3
        assert cfg.solver_ids == ("broyden_bfgs_lf_xi0.1_dr", "dy_dr")

    def test_solver_object_entries(self):
        cfg = parse_config(
            {
                "problem": {"kind": "offdiag", "dims": {"n": 5, "p": 2, "N": 2},
                            "instances": 1, "seed_base": 1},
                "solvers": [{"direction": "broyden", "phi_mode": "bfgs",
                             "z_mode": "powell", "xi": 0.8, "transport": "dr"}],
            }
        )
        assert cfg.solver_ids == ("broyden_bfgs_powell_xi0.8_dr",)

    def test_duplicate_solvers_rejected(self, tmp_path):
        path = small_config(tmp_path, solvers=["dy_dr", "dy"])
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"problem": {}, "solvers": ["dy"], "surprise": 1})

    @pytest.mark.parametrize(
        "problem",
        [
            {"instances": 2.5},
            {"instances": True},
            {"seed_base": "7"},
            {"seed_base": 7.0},
            {"dims": {"n": 10.9}},
            {"dims": {"n": 0}},
            {"dims": {"n": 10, "p": 2}},
            {"kind": ["rayleigh"]},
            {"stride": 2},
        ],
        ids=repr,
    )
    def test_malformed_problem_rejected(self, problem):
        base = {"kind": "rayleigh", "dims": {"n": 10}, "instances": 2, "seed_base": 7}
        with pytest.raises(ConfigError):
            parse_config({"problem": {**base, **problem}, "solvers": ["dy_dr"]})

    @pytest.mark.parametrize("top", [{"max_iters": 20.0}, {"tol": "1e-6"},
                                     {"line_search": {"max_ls_evals": 2.5}}], ids=repr)
    def test_malformed_solver_defaults_rejected(self, top):
        problem = {"kind": "rayleigh", "dims": {"n": 10}, "instances": 2, "seed_base": 7}
        with pytest.raises(ConfigError):
            parse_config({"problem": problem, "solvers": ["dy_dr"], **top})

    @pytest.mark.parametrize("entry", ["hz_projection", {"direction": "hz", "hz_mu": "2"}, 3],
                             ids=repr)
    def test_malformed_solver_entry_rejected(self, entry):
        problem = {"kind": "rayleigh", "dims": {"n": 10}, "instances": 2, "seed_base": 7}
        with pytest.raises(ConfigError):
            parse_config({"problem": problem, "solvers": [entry]})

    def test_dims_kept_as_checked(self):
        cfg = parse_config(
            {"problem": {"kind": "offdiag", "dims": {"N": np.int64(2), "p": 2, "n": 5},
                         "instances": 1, "seed_base": 1}, "solvers": ["dy"]}
        )
        assert cfg.dims == {"n": 5, "p": 2, "N": 2}
        assert all(type(v) is int for v in cfg.dims.values())

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")


class TestBenchmark:
    def test_row_count_and_ordering(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        out = tmp_path / "out"
        run_benchmark(cfg, out)
        rows = read_csv_rows(out / "runs.csv")
        assert len(rows) == 3 * 2
        keys = [(int(r["instance"]), r["solver"]) for r in rows]
        assert keys == sorted(keys)
        assert (out / "profile_iters.csv").exists()
        assert (out / "profile_time.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["solvers"]) == {"broyden_bfgs_lf_xi0.1_dr", "dy_dr"}

    def test_rerun_identical_except_timing(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        run_benchmark(cfg, tmp_path / "a")
        run_benchmark(cfg, tmp_path / "b")
        rows_a = read_csv_rows(tmp_path / "a" / "runs.csv")
        rows_b = read_csv_rows(tmp_path / "b" / "runs.csv")
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("time_ms")
            rb.pop("time_ms")
            assert ra == rb
        assert (tmp_path / "a" / "profile_iters.csv").read_text() == (
            tmp_path / "b" / "profile_iters.csv"
        ).read_text()

    def test_single_solver_profile_is_constant_one(self, tmp_path):
        cfg = load_config(small_config(tmp_path, instances=1, solvers=["broyden_bfgs_lf_xi0.1_dr"]))
        records = run_grid(cfg)
        from riemqn import performance_profile

        table = performance_profile(profile_costs(records, "iters"))
        assert all(v == 1.0 for v in table.curves["broyden_bfgs_lf_xi0.1_dr"])

    def test_failures_recorded_as_infinite_cost(self, tmp_path):
        path = small_config(tmp_path, solvers=["broyden_bfgs_lf_xi0.1_dr"])
        data = json.loads(path.read_text())
        data["max_iters"] = 1  # force MaxIters failures
        path.write_text(json.dumps(data))
        cfg = load_config(path)
        records = run_grid(cfg)
        costs = profile_costs(records, "iters")
        assert all(v == float("inf") for row in costs.values() for v in row.values())
        assert all(r.failure_reason == "max_iters" for r in records)


class TestCliCommands:
    def test_run_and_profile_commands(self, tmp_path, capsys):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["measure"] == "iters"

        prof_out = tmp_path / "prof"
        code = main(["profile", "--runs", str(out / "runs.csv"), "--out", str(prof_out)])
        assert code == 0
        assert (prof_out / "profile_iters.csv").read_text() == (
            out / "profile_iters.csv"
        ).read_text()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        bad.write_text(json.dumps({"problem": {}, "solvers": []}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_solve_streams_trace(self, capsys):
        code = main(
            ["solve", "--problem", "rayleigh", "--n", "10", "--seed", "7",
             "--solver", "broyden_bfgs_lf_xi0.1_dr"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[0] == "iter,f,gnorm,alpha,g_dot_eta,time_ms"
        assert len(lines) >= 3
        summary = json.loads(captured.err.strip().split("\n")[-1])
        assert summary["converged"] is True
        # trace rows are iter-indexed from zero and f decreases
        first = lines[1].split(",")
        assert first[0] == "0"

    def test_solve_offdiag(self, capsys):
        code = main(
            ["solve", "--problem", "offdiag", "--n", "6", "--p", "3", "--matrices", "2",
             "--seed", "3", "--solver", "broyden_bfgs_powell_xi0.8_dr", "--max-iters", "2000"]
        )
        assert code == 0

    def test_unknown_solver_exits_2(self, capsys):
        code = main(["solve", "--problem", "rayleigh", "--n", "10", "--seed", "1",
                     "--solver", "sgd"])
        assert code == 2
