"""``src/hjbkit`` holds only what the product runs: every public top-level
function and class there is used as code somewhere other than its own
definition -- in ``src/``, in the benchmark's ``perfbench/*.py`` or in a
README ```python example.  A name only the tests call belongs in
``tests/reference.py``.  A docstring, comment or string mention is not a
use: the check reads names and attributes from the syntax tree.  In a
module, a bare name is a use only where that module imports the name or
defines it at top level, so a local variable that shares a function's
name does not keep the function.

The same holds for the public members of those classes: each method,
property and ``self`` attribute is read as an attribute somewhere.  A
read of ``self.<name>`` counts only for the class whose body holds it,
so a class does not keep another class's member by reading its own.  Any
other read is matched by name alone, so members that share a name (such
as ``dt`` or ``nodes``) count as used together there.  The exceptions'
attributes in ``errors.py`` are for whoever catches them, and the
dataclass fields are the records' contents, so neither is checked.

Below the two circle spec builders the circle models run on node arrays:
``gridcore.Field`` is only the profile type that ``build_spatial_spec``
and ``build_pollution_spec`` take in, and no other module names it."""

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


def _module_uses(tree) -> Counter:
    """:func:`_names` of a module, with a bare name kept only where the
    module imports it or defines it at top level."""
    own = {alias.asname or alias.name for node in ast.walk(tree)
           if isinstance(node, (ast.Import, ast.ImportFrom))
           for alias in node.names}
    own.update(node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return _names(tree) - Counter(node.id for node in ast.walk(tree)
                                  if isinstance(node, ast.Name)
                                  and node.id not in own)


def _definitions():
    """(module, name, references inside its own definition) of every
    public top-level function and class."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path.stem, node.name, _names(node)[node.name]


def _members():
    """(module, class, member) of every public method, property and
    ``self`` attribute of a public class outside ``errors.py``."""
    for path in SRC:
        if path.stem == "errors":
            continue
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            names = [node.name for node in cls.body
                     if isinstance(node, ast.FunctionDef)]
            names += [node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"]
            for name in dict.fromkeys(names):
                if not name.startswith("_"):
                    yield path.stem, cls.name, name


def _reads(node, module, cls=None):
    """(owner, name) of each attribute read under ``node`` in ``module``:
    the owner of a read of ``self.<name>`` is ``(module, class)`` for the
    innermost class whose body holds it; any other read, or a ``self``
    read outside a class, has the owner None."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) \
                and isinstance(child.ctx, ast.Load):
            own = cls is not None and isinstance(child.value, ast.Name) \
                and child.value.id == "self"
            yield ((module, cls) if own else None), child.attr
        yield from _reads(child, module, child.name
                          if isinstance(child, ast.ClassDef) else cls)


USER_TREES = [ast.parse(path.read_text()) for path in USERS]
EXAMPLE_TREES = [ast.parse(code) for code in EXAMPLES]
USES = sum(map(_module_uses, USER_TREES), Counter()) \
    + sum(map(_names, EXAMPLE_TREES), Counter())
# modules by stem, as _members names them (perfbench's share none with src)
READS = Counter(read for path, tree in zip(USERS, USER_TREES)
                for read in _reads(tree, path.stem)) \
    + Counter(read for tree in EXAMPLE_TREES for read in _reads(tree, None))
DEFINITIONS = list(_definitions())
MEMBERS = list(_members())


def test_the_sources_define_public_names():
    assert len(DEFINITIONS) > 50
    assert len(MEMBERS) > 20


@pytest.mark.parametrize("module, name, own", DEFINITIONS,
                         ids=[f"{m}.{n}" for m, n, _ in DEFINITIONS])
def test_public_name_is_used(module, name, own):
    assert USES[name] > own, (
        f"{module}.{name} is used nowhere but its own definition in src/, "
        "perfbench/ or README's examples")


@pytest.mark.parametrize("module, cls, name", MEMBERS,
                         ids=[f"{m}.{c}.{n}" for m, c, n in MEMBERS])
def test_public_member_is_read(module, cls, name):
    assert READS[None, name] or READS[(module, cls), name], (
        f"{module}.{cls}.{name} is read nowhere in src/, perfbench/ or "
        "README's examples (a self read counts for its own class only)")


# the one function of each module that may name Field, in its signature
FIELD_TAKERS = {"spatial_growth": "build_spatial_spec",
                "pollution": "build_pollution_spec"}


def _field_mentions(tree, taker):
    """Line numbers of the names, attributes and imports ``Field`` in a
    module, apart from its import from gridcore and the argument
    annotations of ``taker``; and how many such annotations there are."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gridcore":
            allowed.update(map(id, node.names))
        if isinstance(node, ast.FunctionDef) and node.name == taker:
            allowed.update(id(sub) for arg in node.args.args
                           if arg.annotation is not None
                           for sub in ast.walk(arg.annotation))
    mentions = [node for node in ast.walk(tree)
                if (isinstance(node, ast.Name) and node.id == "Field")
                or (isinstance(node, ast.Attribute) and node.attr == "Field")
                or (isinstance(node, ast.alias) and node.name == "Field")]
    kept = [node for node in mentions if id(node) not in allowed]
    return ([getattr(node, "lineno", "import") for node in kept],
            len(mentions) - len(kept))


@pytest.mark.parametrize("path", [p for p in SRC if p.stem != "gridcore"],
                         ids=lambda p: p.stem)
def test_field_is_named_only_by_the_spec_builders(path):
    taker = FIELD_TAKERS.get(path.stem)
    stray, signature = _field_mentions(ast.parse(path.read_text()), taker)
    assert not stray, (
        f"{path.stem} names Field at lines {stray}: below the spec builders "
        "the circle models take a CircleGrid and node arrays")
    if taker:  # the import and at least one profile argument
        assert signature >= 2
