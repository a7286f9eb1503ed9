"""The README states the file format versions the code writes, and its
command examples and `bound` flag table match the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from metacert import cli
from metacert.hypernet import CHECKPOINT_VERSION
from metacert.tasks import FORMAT_VERSION

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argument lists of every `metacert ...` line of the README's bash
    blocks, trailing comments dropped."""
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(), re.M | re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines() if line.startswith("metacert ")]


def test_readme_format_versions_are_the_code_constants():
    text = README.read_text()
    for kind, version in (("task", FORMAT_VERSION), ("checkpoint", CHECKPOINT_VERSION)):
        stated = re.findall(rf"\b{kind}\s+format\s+version\s+(\d+)", text)
        assert stated, f"README states no {kind} format version"
        assert set(stated) == {str(version)}, (kind, stated, version)


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [argv for argv in readme_commands() if argv[0] == "bound"],
                         ids=" ".join)
def test_readme_bound_examples_exit_zero(argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_readme_bound_table_is_bound_kinds():
    rows = re.findall(r"^\| `([a-z-]+)` \| `([^`]*)`", README.read_text(), re.M)
    assert rows == [(kind, " ".join(f"--{flag.rstrip('!')}" for flag in flags.split()))
                    for kind, (_, flags) in cli.BOUND_KINDS.items()]
