"""Every function, class and method the package defines is named somewhere.

A companion to test_unused_imports: an ast pass over src/, tests/ and
perfbench/ collects every name that is read (a name, an attribute, an
imported name, or a string that is a dotted identifier, as getattr,
monkeypatch and __all__ take them). A function, class or non-dunder
method defined in src/betadcov that none of them names is dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/betadcov/*.py"))
FILES = sorted(set(ROOT.glob("src/**/*.py")) | set(ROOT.glob("tests/*.py"))
               | set(ROOT.glob("perfbench/*.py")))
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def definitions(source):
    """(line, name) of the module's functions, classes and methods."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("__")]
    return found


def named(source):
    """Every name source reads, imports or spells as a dotted string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def test_finds_a_dead_definition():
    source = ("class A:\n    def used(self):\n        pass\n"
              "    def dead(self):\n        pass\n"
              "    def __repr__(self):\n        pass\n"
              "def helper():\n    return A().used()\n"
              "def lookup():\n    return getattr(A, 'helper')\n")
    names = named(source) | {"lookup"}
    assert [d for d in definitions(source) if d[1] not in names] == [
        (4, "dead")]


def test_every_definition_is_named():
    names = set()
    for path in FILES:
        names |= named(path.read_text())
    dead = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
            for path in PACKAGE
            for line, name in definitions(path.read_text())
            if name not in names]
    assert dead == []
