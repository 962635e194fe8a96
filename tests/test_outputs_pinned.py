"""Pinned bytes of the files and streams the benchmark writes.

The digests were recorded from the writers before the ``runs.csv`` columns
and the trace columns came to be described by one table each; a change to a
header, a column order or a number format shows up here.  Timing columns
(``time_ms``, ``elapsed_s``) are dropped before hashing, so the pins hold on
any machine.
"""

import hashlib
import json
import re

import pytest

from riemqn.bench import parse_config, run_benchmark
from riemqn.cli import main
from riemqn.problems import generate_instance
from riemqn.solver import SolverConfig, config_from_id, solve

# a forced max_iters failure rides along with two solvers that converge
SOLVERS = [
    "broyden_bfgs_lf_xi0.1_dr",
    "hz_proj",
    {"direction": "fr", "transport": "dr", "max_iters": 2},
]

# problem -> sha256 of runs.csv without time_ms, profile_iters.csv, summary.json without elapsed_s
PINNED_BENCH = {
    "rayleigh": (
        {"kind": "rayleigh", "dims": {"n": 12}, "instances": 3, "seed_base": 500},
        "aa407e3180d87891c6f5e58d4ba9393075f7c063ae65823c1651dda112b3d7fa",
        "5ac6ce6a33a08b5050b30c96e3588f2fc95fb94fe385c837cdf324d81731715b",
        "30af66c21246b87214e49247b685576bf89bd7249d01aa224800ffe20e15f691",
    ),
    "offdiag": (
        {"kind": "offdiag", "dims": {"n": 5, "p": 2, "N": 2}, "instances": 3, "seed_base": 40},
        "238d6022f1c3002a139fb394e58c87eef6a3f4677dcaa5053c74dd247b583e7b",
        "dc64556c8d6c68b024c82d75a16ef10b2ebf4614148f5974922cad634f1c1553",
        "283a3e68c8e128f8f8c25cf004dfadb1fa83ef4fa95696ecbc6975ef03177763",
    ),
}

# solve arguments -> sha256 of the streamed trace without time_ms
PINNED_STREAMS = {
    "rayleigh-hz_proj": (
        ["--problem", "rayleigh", "--n", "30", "--seed", "7", "--solver", "hz_proj"],
        "34f7990538e1d42e7c212d146893da63afaa33571dc434a321514ca917eec7d0",
    ),
    "offdiag-broyden_bfgs_powell_xi0.8_invret": (
        ["--problem", "offdiag", "--n", "6", "--p", "3", "--matrices", "2", "--seed", "3",
         "--solver", "broyden_bfgs_powell_xi0.8_invret"],
        "43dc9b91955b936341a93c66baf6d1680a65f622a847763e7a285d7e55b34162",
    ),
}

# sha256 of RunResult.to_dict()["trace"] without time_ms, rayleigh-hz_proj as above
PINNED_TRACE_DICTS = "26f5b5778ad309e5c1d553cf67d989d2a7b8d7e0677357707ca11eb866cf78da"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def without_column(text: str, name: str) -> str:
    """``text`` with the column headed ``name`` left out; line ends are kept.

    The files hold no quoted fields, so a comma always separates two columns.
    """
    lines = text.splitlines(keepends=True)
    drop = lines[0].rstrip("\r\n").split(",").index(name)
    out = []
    for line in lines:
        body = line.rstrip("\r\n")
        fields = body.split(",")
        out.append(",".join(fields[:drop] + fields[drop + 1:]) + line[len(body):])
    return "".join(out)


@pytest.mark.parametrize("kind", sorted(PINNED_BENCH))
def test_benchmark_files_pinned(kind, tmp_path):
    problem, runs, iters, summary = PINNED_BENCH[kind]
    cfg = parse_config({"problem": problem, "solvers": SOLVERS, "max_iters": 2000})
    run_benchmark(cfg, tmp_path)
    text = {name: (tmp_path / name).read_bytes().decode()
            for name in ("runs.csv", "profile_iters.csv", "summary.json")}
    assert json.loads(text["summary.json"])["solvers"]["fr_dr"]["converged"] == 0
    assert sha256(without_column(text["runs.csv"], "time_ms")) == runs
    assert sha256(text["profile_iters.csv"]) == iters
    assert sha256(re.sub(r'\n *"elapsed_s": [^\n]*', "", text["summary.json"])) == summary


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_solve_stream_pinned(name, capsys):
    args, digest = PINNED_STREAMS[name]
    assert main(["solve", *args]) == 0
    assert sha256(without_column(capsys.readouterr().out, "time_ms")) == digest


def test_trace_dicts_pinned():
    """``scalars``, and through it ``to_dict``, keep the stream's names and values."""
    inst = generate_instance("rayleigh", {"n": 30}, 7)
    cfg = config_from_id("hz_proj", SolverConfig(record_trace=True))
    rows = solve(inst, inst.initial_point(), cfg).to_dict()["trace"]
    for row in rows:
        del row["time_ms"]
    assert sha256(json.dumps(rows)) == PINNED_TRACE_DICTS
