"""Every function, class and method the package defines has a user.

A companion to test_unused_imports: an ast pass over src/, tests/ and
perfbench/ collects every name that is read (a name, an attribute, an
imported name, or a string that is a dotted identifier, as getattr,
monkeypatch and __all__ take them). A function, class or non-dunder
method defined in src/betadcov is dead code unless it is named:
a private (_-prefixed) one in src/ itself, a public one in src/ outside
__init__.py or in perfbench/. A public definition that only tests/ and
__init__.py name is dead code too, unless README.md names it as part of
the library's interface.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/**/*.py"))
BENCH = sorted(ROOT.glob("perfbench/*.py"))
TESTS = sorted(ROOT.glob("tests/*.py"))
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


def dead_definitions(package, bench, tests, readme):
    """(path, line, name) of definitions in package without a user.

    package maps the paths of src/ to their source; bench and tests are
    the sources of perfbench/ and tests/, and readme the README text.
    """
    in_src = set().union(*map(named, package.values()))
    in_code = set().union(*(named(source) for path, source in package.items()
                            if Path(path).name != "__init__.py"),
                          *map(named, bench))
    anywhere = in_src.union(*map(named, tests))
    documented = anywhere & set(re.findall(r"\w+", readme))
    return [(path, line, name) for path, source in package.items()
            for line, name in definitions(source)
            if name not in (in_src if name.startswith("_")
                            else in_code | documented)]


def test_private_definition_named_only_in_tests_is_dead():
    source = "def _helper():\n    pass\ndef public():\n    pass\n"
    test = "_helper()\npublic()\n"
    assert dead_definitions({"m.py": source}, [test], [], "") == [
        ("m.py", 1, "_helper")]


def test_public_definition_named_only_in_tests_needs_the_readme():
    source = "def shown():\n    pass\ndef hidden():\n    pass\n"
    init = "from .m import hidden, shown\n"
    test = "shown()\nhidden()\n"
    package = {"m.py": source, "__init__.py": init}
    assert dead_definitions(package, [], [test], "`shown(x)`") == [
        ("m.py", 3, "hidden")]
    assert dead_definitions(package, [test], [], "") == []


def test_every_definition_is_named():
    dead = dead_definitions(
        {path.relative_to(ROOT): path.read_text() for path in PACKAGE},
        [path.read_text() for path in BENCH],
        [path.read_text() for path in TESTS],
        (ROOT / "README.md").read_text())
    assert ["%s:%d %s" % d for d in dead] == []
