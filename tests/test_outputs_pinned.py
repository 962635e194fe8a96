"""Pinned bytes of the files and streams the benchmark writes.

The digests were recorded from the writers before the ``runs.csv`` columns
and the trace columns came to be described by one table each, and
re-recorded when the line search came to start at the quadratic step, when
each transported image became one scaled projection, and (the Rayleigh
digests only) when Rayleigh trials came to take their products with A from
the two in hand on the search's ray; the iterates moved each time.  The
summary digests were re-recorded once more, with no iterate moving, when the
constant ``"measure": "iters"`` line left ``summary.json``.  A change
to a header, a column order or a number format shows up here.  The
shipped-config slices pin ``runs.csv`` of the first five instances of each
shipped config, so a hot-path change that moves one iterate bit of the
behaviour oracle fails here.  Timing
columns (``time_ms``, ``elapsed_s``) are dropped before hashing, so the pins
hold on any machine.
"""

import hashlib
import json
import re
from pathlib import Path

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
        "439b833e02c885b6722c70f6b17223298ffa5121b8f0d6cd0b98a290f55b415b",
        "b5f5a88a70dd8ceba51d9930c7c7eec36c38e207694f98fbddd101d125690dcc",
        "35f1ea77c6c5b4776ebc362ee59382a49248cecc1a1859eb21df36338228ad62",
    ),
    "offdiag": (
        {"kind": "offdiag", "dims": {"n": 5, "p": 2, "N": 2}, "instances": 3, "seed_base": 40},
        "f93e62c3df2fc232e4938b99cce19ba4e60b6a8b541e61e9973860dc55080ab7",
        "bc956e90eda02c91567729504299af3d819b45e38624c9b344ce3b252fb790cc",
        "9360b99aef074d815286ba46b2bc23f6536101ebeff62e7684c61fc3c9a29fff",
    ),
}

# shipped config -> sha256 of runs.csv without time_ms for its first SLICE_INSTANCES
# instances (70 runs, none failing): a slice of the behaviour oracle, the full
# runs.csv of both shipped configs, so that one moved iterate bit fails here.  The
# offdiag slice was re-recorded when the CG direction dropped its scaling factor: its
# hz_dr rows moved (from f8d39c7c...)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SLICE_INSTANCES = 5
PINNED_SLICES = {
    "rayleigh_profile.json": "e590f9da89fc18774c99caf4ad34be3929893d687eea52f60419c966f2380fcd",
    "offdiag_profile.json": "96e9d8705d76803b947809c54e578d047d0b19d3ec88c7d016b816e8394e9261",
}

# solve arguments -> sha256 of the streamed trace without time_ms
PINNED_STREAMS = {
    "rayleigh-hz_proj": (
        ["--problem", "rayleigh", "--n", "30", "--seed", "7", "--solver", "hz_proj"],
        "a3060591569bc3d5b2f7753e5c7c16e310b14bda083c9813a67f1d2375d7fc09",
    ),
    "offdiag-broyden_bfgs_powell_xi0.8_invret": (
        ["--problem", "offdiag", "--n", "6", "--p", "3", "--N", "2", "--seed", "3",
         "--solver", "broyden_bfgs_powell_xi0.8_invret"],
        "d48dd8a80fe23e90433e5e08fced608669361a082b222f0622d225fe9c995384",
    ),
}

# sha256 of RunResult.to_dict()["trace"] without time_ms, rayleigh-hz_proj as above
PINNED_TRACE_DICTS = "e1c9558770b65e9e852403ce08dc0129d5b57306ff4ff5cbc115091d05030a1c"


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


@pytest.mark.parametrize("name", sorted(PINNED_SLICES))
def test_shipped_config_slice_pinned(name, tmp_path):
    data = json.loads((CONFIGS / name).read_text())
    data["problem"]["instances"] = SLICE_INSTANCES
    run_benchmark(parse_config(data), tmp_path)
    text = (tmp_path / "runs.csv").read_bytes().decode()
    rows = text.splitlines()[1:]
    assert len(rows) == SLICE_INSTANCES * len(data["solvers"]) == 70
    assert all(row.split(",")[2] == "1" for row in rows)  # converged, the third column
    assert sha256(without_column(text, "time_ms")) == PINNED_SLICES[name]


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
