"""Every function, class and method the package defines is named somewhere.

A companion to test_unused_imports: an ast pass over src/, tests/ and
perfbench/ collects every name that is read (a name, an attribute, an
imported name, or a string that is a dotted identifier, as getattr,
monkeypatch and __all__ take them). A function, class or non-dunder
method defined in src/betadcov that none of them names is dead code.
A private (_-prefixed) one must be named in src/ itself: a helper that
only tests call is dead code too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/betadcov/*.py"))
SOURCES = sorted(ROOT.glob("src/**/*.py"))
FILES = sorted(set(SOURCES) | set(ROOT.glob("tests/*.py"))
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


def dead_definitions(package, sources, others):
    """(path, line, name) of definitions in package named nowhere.

    package maps paths to their source; sources and others are the
    sources of src/ and of every other file scanned.
    """
    in_src = set().union(*map(named, sources))
    anywhere = in_src.union(*map(named, others))
    return [(path, line, name) for path, source in package.items()
            for line, name in definitions(source)
            if name not in (in_src if name.startswith("_") else anywhere)]


def test_private_definition_named_only_in_tests_is_dead():
    source = "def _helper():\n    pass\ndef public():\n    pass\n"
    test = "_helper()\npublic()\n"
    assert dead_definitions({"m.py": source}, [source], [test]) == [
        ("m.py", 1, "_helper")]


def test_every_definition_is_named():
    dead = dead_definitions(
        {path.relative_to(ROOT): path.read_text() for path in PACKAGE},
        [path.read_text() for path in SOURCES],
        [path.read_text() for path in FILES if path not in SOURCES])
    assert ["%s:%d %s" % d for d in dead] == []
