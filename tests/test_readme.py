"""The README's library example runs as printed, and its command lines
are valid configurations."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from lindrec.cli import build_config, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def command_lines() -> list[str]:
    """Every ``lindrec`` line of the README's ``sh`` blocks."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("lindrec ")]


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_it_promises():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "feasible 1"
    assert lines[1] == "True"
    assert float(lines[-1]) <= 1e-12


def test_readme_lists_command_lines():
    assert len(command_lines()) >= 6


@pytest.mark.parametrize("line", command_lines())
def test_command_line_is_a_valid_config(line):
    # parsed and validated, not run
    argv = shlex.split(line, comments=True)[1:]
    build_config(build_parser().parse_args(argv)).validate()
