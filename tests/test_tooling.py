"""Source hygiene checks on the package modules, run with the test suite."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fracdec"
# __init__.py imports only to re-export, so every name there is "unused"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module binds by import but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_import_check_flags_unread_names():
    source = ("import os\nimport os.path as osp\nimport json\n"
              "from .polyring import degree, normalize as norm\n"
              "from . import fields\n"
              "def f(x):\n    return json.dumps(norm(x)), fields.q\n")
    assert unused_imports(source) == ["degree", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
