"""The README's examples hold as printed: each ```python block is
executed in a fresh namespace, so a changed signature it calls fails
here; each ``hjbkit`` command line parses; and the layout names every
module and every script under ``tools/``."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from hjbkit.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT,
                    flags=re.DOTALL | re.MULTILINE)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```$", TEXT,
                                         flags=re.DOTALL | re.MULTILINE)
            for line in block.splitlines() if line.startswith("hjbkit ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_example_runs(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert out.getvalue()


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    assert build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_layout_names_every_module():
    layout = re.search(r"^## Layout\n+```\n(.*?)^```$", TEXT,
                       flags=re.DOTALL | re.MULTILINE).group(1)
    named = set(re.findall(r"^  (\w+\.py) ", layout, flags=re.MULTILINE))
    modules = {p.name for p in (ROOT / "src" / "hjbkit").glob("*.py")}
    assert named == modules - {"__init__.py"}


def test_readme_layout_names_every_tool():
    layout = re.search(r"^## Layout\n+```\n(.*?)^```$", TEXT,
                       flags=re.DOTALL | re.MULTILINE).group(1)
    named = set(re.findall(r"^(tools/\w+\.py) ", layout, flags=re.MULTILINE))
    assert named == {f"tools/{p.name}" for p in (ROOT / "tools").glob("*.py")}
