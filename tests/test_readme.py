"""The README's examples run and print what its comments say, and what it
states about the identity suite matches the registry."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from degenpoly import cli, verify

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _quick_start() -> str:
    section = TEXT.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_commented_values():
    code = _quick_start()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected == [
        "(1 - 3λ + 2λ^2) + (4 - 4λ^2)x + (1 + 3λ + 2λ^2)x^2",
        "1/6 - (1/6)λ^2",
        "5 - 3λ",
        "4",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def _sh_commands() -> list:
    """Each ``degenpoly`` line of the README's sh blocks: its arguments, and
    the value its ``# -> "v"`` comment promises, or None."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv[:1] == ["degenpoly"]:
                value = re.fullmatch(r'\s*-> "(.*)"\s*', comment)
                commands.append((argv[1:], value and value.group(1)))
    return commands


SH_COMMANDS = _sh_commands()


def test_the_readme_shows_every_subcommand_and_promises_values():
    assert {argv[0] for argv, _ in SH_COMMANDS} == {"table", "eval", "verify"}
    assert [value for _, value in SH_COMMANDS if value] == ["5", "-2/3"]


@pytest.mark.parametrize("argv, value", SH_COMMANDS, ids=[" ".join(argv) for argv, _ in SH_COMMANDS])
def test_each_readme_command_runs_and_prints_its_commented_value(argv, value):
    out = io.StringIO()
    assert cli.main(list(argv), out) == 0
    if value is not None:
        assert json.loads(out.getvalue())["value"] == value


def test_the_readme_lists_the_registered_check_ids():
    block = re.search(r"The registered\s+checks:\n\n```\n(.*?)```", TEXT, re.S).group(1)
    assert block.split() == list(verify.check_ids())


def test_the_readme_counts_the_registered_checks():
    count = re.search(r"the registry of (\d+) named identity checks", TEXT).group(1)
    assert int(count) == len(verify.REGISTRY)
