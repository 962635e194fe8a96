import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from riemqn import performance_profile
from riemqn.bench import (
    RunRecord,
    load_config,
    parse_config,
    profile_costs,
    read_runs_csv,
    run_benchmark,
    run_grid,
    write_runs_csv,
)
from riemqn.cli import _build_parser, main
from riemqn.errors import ConfigError
from riemqn.solver import SolverConfig


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
        path = small_config(tmp_path, solvers=["dy_dr", {"direction": "dy"}])
        with pytest.raises(ConfigError):
            load_config(path)

    def test_close_xi_values_are_distinct_solvers(self):
        solvers = [{"direction": "broyden", "xi": xi} for xi in (0.1234567, 0.1234568)]
        cfg = parse_config({"problem": {"kind": "rayleigh", "dims": {"n": 5}, "instances": 1,
                                        "seed_base": 1}, "solvers": solvers})
        assert cfg.solver_ids == ("broyden_bfgs_lf_xi0.1234567_dr",
                                  "broyden_bfgs_lf_xi0.1234568_dr")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['surprise'\] \(accepted: "
                                              r"line_search, max_iters, problem, solvers, tol\)"):
            parse_config({"problem": {}, "solvers": ["dy_dr"], "surprise": 1})

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
                                     {"line_search": {"max_evals": 2.5}}], ids=repr)
    def test_malformed_solver_defaults_rejected(self, top):
        problem = {"kind": "rayleigh", "dims": {"n": 10}, "instances": 2, "seed_base": 7}
        with pytest.raises(ConfigError):
            parse_config({"problem": problem, "solvers": ["dy_dr"], **top})

    @pytest.mark.parametrize("entry", ["hz_projection", "hz", {"direction": "hz", "hz_mu": 2.0},
                                       {"transport": "projection"}, 3],
                             ids=repr)
    def test_malformed_solver_entry_rejected(self, entry):
        problem = {"kind": "rayleigh", "dims": {"n": 10}, "instances": 2, "seed_base": 7}
        with pytest.raises(ConfigError):
            parse_config({"problem": problem, "solvers": [entry]})

    def test_dims_kept_as_checked(self):
        cfg = parse_config(
            {"problem": {"kind": "offdiag", "dims": {"N": np.int64(2), "p": 2, "n": 5},
                         "instances": 1, "seed_base": 1}, "solvers": ["dy_dr"]}
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

    def test_both_preconvex_readings_in_one_grid(self, tmp_path):
        # the two readings of mu are two solver ids, so one grid holds both
        sids = ["broyden_preconvex_lf_xi0.1_dr", "broyden_preconvexrecip_lf_xi0.1_dr"]
        out = tmp_path / "out"
        run_benchmark(load_config(small_config(tmp_path, instances=1, solvers=sids)), out)
        rows = read_csv_rows(out / "runs.csv")
        assert [r["solver"] for r in rows] == sids
        assert all(r["converged"] == "1" for r in rows)
        assert rows[0]["iters"] != rows[1]["iters"]

    def test_single_solver_profile_is_constant_one(self, tmp_path):
        cfg = load_config(small_config(tmp_path, instances=1, solvers=["broyden_bfgs_lf_xi0.1_dr"]))
        records = run_grid(cfg)
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
        assert "measure" not in summary
        # P(1) is read from the iteration-count profile
        iters = performance_profile(profile_costs(read_runs_csv(out / "runs.csv"), "iters"))
        for sid, row in summary["solvers"].items():
            assert row["profile_at_1"] == iters.value(sid, 1.0)

        prof_out = tmp_path / "prof"
        code = main(["profile", "--runs", str(out / "runs.csv"), "--out", str(prof_out)])
        assert code == 0
        for name in ("profile_iters.csv", "profile_time.csv"):
            assert (prof_out / name).read_text() == (out / name).read_text()

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
            ["solve", "--problem", "offdiag", "--n", "6", "--p", "3", "--N", "2",
             "--seed", "3", "--solver", "broyden_bfgs_powell_xi0.8_dr", "--max-iters", "2000"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "args",
        [["run", "--config", "c.json", "--out", "o", "--measure", "time"],
         ["solve", "--problem", "offdiag", "--n", "6", "--matrices", "2", "--seed", "3",
          "--solver", "dy_dr"]],
        ids=["measure", "matrices"],
    )
    def test_removed_flags_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")  # a directory under a regular file
        if command == "run":
            args = ["run", "--config", str(small_config(tmp_path)), "--out", out]
        else:
            runs = tmp_path / "runs.csv"
            runs.write_text("\n".join([HEADER, *ROWS]) + "\n")
            args = ["profile", "--runs", str(runs), "--out", out]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "entry,named",
        [("broyden_bfx_lf_xi0.1_dr", "solvers[2]: phi_mode must be one of ['bfgs', 'preconvex', "
                                     "'preconvexrecip'], got 'bfx' in solver id "
                                     "'broyden_bfx_lf_xi0.1_dr'"),
         ({"z_mode": "lff"}, "solvers[2] {'z_mode': 'lff'}: z_mode must be one of "
                             "['lf', 'powell'], got 'lff'")],
        ids=["id", "object"],
    )
    def test_bad_solver_entry_named_exits_2(self, tmp_path, capsys, entry, named):
        path = small_config(tmp_path, solvers=["dy_dr", "hz_dr", entry])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_bad_code_in_solve_id_exits_2(self, capsys):
        code = main(["solve", "--problem", "rayleigh", "--n", "10", "--seed", "1",
                     "--solver", "broyden_bfgs_lf_xi0.1_warp"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: transport must be one of ['dr', 'invret', 'proj'], got 'warp' "
            "in solver id 'broyden_bfgs_lf_xi0.1_warp'\n")

    def test_solve_defaults_are_solver_config_defaults(self):
        args = _build_parser().parse_args(["solve", "--problem", "rayleigh", "--n", "10",
                                           "--seed", "1", "--solver", "dy_dr"])
        assert (args.tol, args.max_iters) == (SolverConfig().tol, SolverConfig().max_iters)

    @pytest.mark.parametrize("sid", ["sgd", "hz"])
    def test_unknown_solver_exits_2(self, capsys, sid):
        code = main(["solve", "--problem", "rayleigh", "--n", "10", "--seed", "1",
                     "--solver", sid])
        assert code == 2
        assert f"malformed solver id: {sid!r}" in capsys.readouterr().err


HEADER = "instance,solver,converged,iters,time_ms,final_f,final_gnorm,failure_reason"
ROWS = [
    "0,broyden_bfgs_lf_xi0.1_dr,1,22,6.608,-3.4101040673719574,9.8418216300439613e-07,",
    "0,dy_dr,0,2,0.480,-0.79390319394006292,6.8396708965924411,max_iters",
]


class TestRunsFile:
    """runs.csv is read back as strictly as a config: each defect is a ConfigError."""

    def write(self, tmp_path, header=HEADER, rows=ROWS) -> Path:
        path = tmp_path / "runs.csv"
        path.write_text("".join(line + "\r\n" for line in [header, *rows]))
        return path

    def test_well_formed_file_read(self, tmp_path):
        records = read_runs_csv(self.write(tmp_path))
        assert records[1] == RunRecord(0, "dy_dr", False, 2, 0.48, -0.79390319394006292,
                                       6.8396708965924411, "max_iters")
        assert records[0].converged is True and records[0].failure_reason == ""

    def test_round_trip(self, tmp_path):
        cfg = load_config(small_config(tmp_path, solvers=["broyden_bfgs_lf_xi0.1_dr", "hz_proj"]))
        records = run_grid(cfg) + [
            RunRecord(7, "dy_dr", False, 0, 0.0, math.inf, math.inf, "non_finite"),
            RunRecord(7, "hz_dr", False, 12, 1234.5, -1e-300, 5e-324, "line_search_failed"),
        ]
        write_runs_csv(records, tmp_path / "runs.csv")
        assert read_runs_csv(tmp_path / "runs.csv") == records

    @pytest.mark.parametrize(
        "header,rows",
        [
            (HEADER, ["0,dy_dr,1"]),
            (HEADER, [ROWS[1] + ",extra"]),
            (HEADER, [ROWS[1].replace("dy_dr,0,", "dy_dr,7,")]),
            (HEADER, [ROWS[1].replace(",2,", ",2.5,")]),
            (HEADER, [ROWS[1].replace(",2,", ",-2,")]),
            (HEADER, [ROWS[1].replace("0.480", "fast")]),
            (HEADER, [ROWS[1].replace("max_iters", "gave_up")]),
            (HEADER, [ROWS[1].replace("dy_dr,0,", "dy_dr,1,")]),
            (HEADER, [ROWS[0].replace("_dr,1,", "_dr,0,")]),
            (HEADER.replace("iters,time_ms", "time_ms,iters"), ROWS),
            (HEADER.replace("final_gnorm", "gnorm"), ROWS),
            (HEADER + ",notes", ROWS),
            (HEADER, [*ROWS, ROWS[1]]),
            ("", []),
            (HEADER, []),
        ],
        ids=["short-row", "extra-field", "converged-7", "float-iters", "negative-iters",
             "text-time", "unknown-reason", "converged-with-reason",
             "failed-without-reason", "reordered-header", "renamed-header",
             "extra-column", "duplicate-pair", "empty-file", "header-only"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, header, rows):
        path = self.write(tmp_path, header, rows)
        if rows or header != HEADER:  # a header-only file reads as no records
            with pytest.raises(ConfigError, match=str(path)):
                read_runs_csv(path)
        assert main(["profile", "--runs", str(path), "--out", str(tmp_path / "prof")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
