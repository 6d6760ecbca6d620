"""``src/hjbkit`` holds only what the product runs: every public top-level
function and class there is used as code somewhere other than its own
definition -- in ``src/``, in the benchmark's ``perfbench/*.py`` or in a
README ```python example.  A name only the tests call belongs in
``tests/reference.py``.  A docstring, comment or string mention is not a
use: the check reads names and attributes from the syntax tree."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "hjbkit").glob("*.py"))
USERS = [*SRC, *sorted((ROOT / "perfbench").glob("*.py"))]
EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                      (ROOT / "README.md").read_text(),
                      flags=re.DOTALL | re.MULTILINE)


def _names(tree) -> Counter:
    """Each name and attribute the code under ``tree`` reads or binds."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions():
    """(module, name, references inside its own definition) of every
    public top-level function and class."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path.stem, node.name, _names(node)[node.name]


USES = sum((_names(ast.parse(path.read_text())) for path in USERS),
           Counter()) + sum((_names(ast.parse(code)) for code in EXAMPLES),
                            Counter())
DEFINITIONS = list(_definitions())


def test_the_sources_define_public_names():
    assert len(DEFINITIONS) > 50


@pytest.mark.parametrize("module, name, own", DEFINITIONS,
                         ids=[f"{m}.{n}" for m, n, _ in DEFINITIONS])
def test_public_name_is_used(module, name, own):
    assert USES[name] > own, (
        f"{module}.{name} is used nowhere but its own definition in src/, "
        "perfbench/ or README's examples")
