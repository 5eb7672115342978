"""Layering lint: a module of the package uses only the public names of the
other modules it imports from."""

from __future__ import annotations

import ast
from pathlib import Path

import ospq

_PACKAGE = Path(ospq.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """`from <ospq module> import _name` lines of one file, dunders aside."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "ospq"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                out.append(f"{path.name}:{node.lineno}: {name} from {node.module}")
    return out


def test_no_module_imports_a_private_name_of_another():
    files = sorted(_PACKAGE.glob("*.py"))
    assert len(files) >= 9
    found = [line for path in files for line in _private_imports(path)]
    assert found == []


def test_the_lint_sees_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import __version__\n"
        "from .walgebra import AP, _rule\n"
        "def f():\n"
        "    from ospq.ospclassic import _parity\n"
        "from numpy import _private\n",
        encoding="utf-8",
    )
    assert _private_imports(path) == [
        "mod.py:2: _rule from walgebra",
        "mod.py:4: _parity from ospq.ospclassic",
    ]
