"""The README's examples run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from raagfp.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _section(title: str) -> str:
    section = README.read_text().split(f"\n## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def command_lines() -> list:
    """Every ``raagfp`` line of the sh block under ## Command line."""
    block = re.search(r"```sh\n(.*?)```", _section("Command line"), re.S)
    assert block is not None, "no sh block under ## Command line"
    return [line for line in block.group(1).splitlines()
            if line.startswith("raagfp ")]


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", _section("Library"), re.S)
    assert block is not None, "no python block under ## Library"
    # optimize=0 keeps the example's asserts under python -O as well
    exec(compile(block.group(1), str(README), "exec", optimize=0), {})


def test_command_line_block_is_not_empty():
    assert command_lines()


@pytest.mark.parametrize("line", command_lines())
def test_command_line_example_runs(line, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(line)[1:])
    assert code in (0, 1), (line, code)
    assert isinstance(json.loads(out.getvalue()), dict)
