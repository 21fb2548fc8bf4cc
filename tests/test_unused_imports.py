"""Every imported name in the package and its tests is used.

No linter runs in CI, so this ast pass stands in for one: a name bound
by an import must be read somewhere in its module, or be listed in the
module's __all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/betadcov/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source):
    """Names bound by imports in source that it never reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_finds_an_unused_import():
    source = ("import json\nimport os\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(os.sep)\n")
    assert unused_imports(source) == [(1, "json"), (3, "pi")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
