"""The README's CLI commands and library example run as written."""

import re
import shlex
from pathlib import Path

import pytest

from thetaframe import cli

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
