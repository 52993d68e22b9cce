"""The README's CLI commands and library example run as written."""

import math
import random
import re
import shlex
from pathlib import Path

import pytest

from thetaframe import cli, find_optimal_beta

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _section_blocks(heading, lang):
    """Fenced ```lang blocks between `## heading` and the next heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def _cli_commands():
    text = "".join(_section_blocks("CLI", "sh")).replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines()
            if line.startswith("thetaframe ")]


CLI_COMMANDS = _cli_commands()


def test_cli_block_found():
    assert len(CLI_COMMANDS) >= 5


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda a: a[0])
def test_cli_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_library_example_runs(capsys):
    (code,) = _section_blocks("Library example", "python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_bracket_claim():
    """The widest bracket that the README quotes for 600 seeded windows,
    n = 2 to 64, ends up to a decade from 1/sqrt(n), no resolution
    floor, and the n where it occurs."""
    text = " ".join(README.split())
    width, at_n = re.search(r"the widest bracket was ([0-9.e+-]+), at n = "
                            r"(\d+)\.", text).groups()
    rng = random.Random(600)
    widest = (0.0, 0)
    for _ in range(600):
        n = rng.randint(2, 64)
        root = 1 / math.sqrt(n)
        window = (root * 10 ** -rng.uniform(0.01, 1.0),
                  root * 10 ** rng.uniform(0.01, 1.0))
        rep = find_optimal_beta(n, window, 1e-300)
        assert abs(rep.beta_for_max_A - root) <= rep.bracket_width
        widest = max(widest, (rep.bracket_width, n))
    assert (f"{widest[0]:.1e}", widest[1]) == (width, int(at_n))
