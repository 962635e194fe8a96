"""The README's config example, solver ids and command lines stay in step with the code."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

from riemqn import DirectionKind
from riemqn.bench import parse_config
from riemqn.cli import _build_parser
from riemqn.solver import SolverConfig, config_from_id, solver_id

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}


def readme_solver_ids() -> list[str]:
    """Each backticked word that starts with a direction and an underscore, fields aside."""
    words = re.findall(r"`([^`\s]+)`", README)
    starts = tuple(f"{d.value}_" for d in DirectionKind)
    return sorted({w for w in words if w.startswith(starts) and w not in FIELDS})


def test_config_schema_example_parses():
    block = re.search(r"Config schema:\s*```json\n(.*?)```", README, re.S)
    assert block is not None, "README has no Config schema JSON block"
    config = parse_config(json.loads(block.group(1)))
    assert config.instances > 0 and config.solvers


def test_readme_solver_ids_parse_and_round_trip():
    ids = readme_solver_ids()
    assert "hz_dr" in ids and "broyden_bfgs_lf_xi0.1_dr" in ids
    for sid in ids:
        assert solver_id(config_from_id(sid)) == sid


def readme_commands() -> list[list[str]]:
    """The arguments of each ``riemqn-bench`` line in the README's code blocks.

    A trailing backslash continues a line; ``[--flag value]`` marks an optional
    flag, which is parsed as if given.
    """
    blocks = re.findall(r"```[^\n]*\n(.*?)```", README, re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line.replace("[", " ").replace("]", " "))[1:]
            for line in lines if line.startswith("riemqn-bench ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {args[0] for args in commands} == {"run", "profile", "solve"}
    parser = _build_parser()
    for args in commands:
        try:
            parser.parse_args(args)
        except SystemExit:
            raise AssertionError(f"README line does not parse: riemqn-bench {shlex.join(args)}")
