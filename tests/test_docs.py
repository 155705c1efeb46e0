"""The README's command table and examples against the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from ncindiv.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# `ncindiv <args>  # <output>`, the output's lines joined by " / "
EXAMPLE = re.compile(r"^ncindiv (?P<argv>[^#]+?)\s*(?:#\s*(?P<output>.+))?$", re.M)


def test_the_command_table_names_every_subcommand():
    table = re.findall(r"^\| `([\w-]+)` \|", README, re.M)
    (subcommands,) = (
        action.choices for action in build_parser()._actions if action.dest == "command"
    )
    assert sorted(table) == sorted(subcommands)


def test_the_readme_has_examples_with_outputs():
    outputs = [m["output"] for m in EXAMPLE.finditer(README) if m["output"]]
    assert len(outputs) >= 4


@pytest.mark.parametrize("example", EXAMPLE.findall(README), ids=lambda e: e[0])
def test_each_example_prints_its_output(capsys, example):
    argv, output = example
    assert main(shlex.split(argv)) == 0
    out = capsys.readouterr().out
    if output:
        assert " / ".join(out.splitlines()) == output
