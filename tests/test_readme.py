"""The README's command lines and `<subcommand> --flag` spans name what the CLI has."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from persum.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _subcommands():
    """Each subcommand's parser, by name."""
    (action,) = [a for a in build_parser()._actions if a.dest == "command"]
    return action.choices


def _sh_commands():
    """Each `persum …` command of the README's sh blocks, `\\` continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("persum "):
                commands.append(shlex.split(line)[1:])
    return commands


def _flag_spans():
    """(subcommand, flag) for each flag of each inline span that opens with a subcommand
    and a flag, such as `rate-curve --predictions/--output` or `persum split --split-file`."""
    names = "|".join(map(re.escape, _subcommands()))
    spans = re.findall(rf"`(?:persum\s+)?({names})\s+(--[^`]*)`", README)
    return [(command, flag) for command, rest in spans for flag in re.findall(r"--[a-z][a-z-]*", rest)]


def test_readme_has_commands_and_flag_spans():
    assert len(_sh_commands()) >= 7
    assert len(_flag_spans()) >= 10


@pytest.mark.parametrize("argv", _sh_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"persum {shlex.join(argv)}: {capsys.readouterr().err}")


def test_readme_flag_spans_name_flags_of_their_subcommand():
    subcommands = _subcommands()
    unknown = [f"{command} {flag}" for command, flag in _flag_spans()
               if flag not in subcommands[command]._option_string_actions]
    assert unknown == []
