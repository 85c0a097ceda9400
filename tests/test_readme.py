"""The README's command lines and `<subcommand> --flag` spans name what the CLI has, and its
Library use block runs."""

from __future__ import annotations

import random
import re
import shlex
from pathlib import Path

import pytest

from persum.cli import build_parser
from persum.corpus import write_corpus
from util import synthetic_corpus

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


def test_readme_library_block_runs(tmp_path, monkeypatch):
    """The block, run where `split.jsonl` is a split corpus with golds, does what its comments say."""
    (block,) = re.findall(r"^## Library use\n.*?^```python\n(.*?)^```", README, re.S | re.M)
    write_corpus(synthetic_corpus(random.Random(3), 40, with_gold=True, with_split=True), tmp_path / "split.jsonl")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(block, names)
    assert names["row"].rl_f == 0.8
    assert names["result"].warnings is names["warnings"]
    assert {key[0] for key in names["result"].runs} == {"lead_post_process_base"}
