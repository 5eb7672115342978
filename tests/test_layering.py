"""Layering lint: a module of the package uses only the public names of the
other modules it imports from, and every name the benchmark imports from the
package exists."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import ospq

_PACKAGE = Path(ospq.__file__).parent
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every `from ospq... import name` of one file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.ImportFrom) and not node.level
                and (node.module or "").split(".")[0] == "ospq"):
            out.extend((node.module, alias.name) for alias in node.names)
    return out


def _unresolved(pairs: list[tuple[str, str]]) -> list[str]:
    """The imported names that are neither an attribute nor a submodule."""
    out = []
    for module, name in pairs:
        mod = importlib.import_module(module)
        if hasattr(mod, name):
            continue
        if hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}"):
            continue
        out.append(f"{name} from {module}")
    return out


def test_every_name_the_benchmark_imports_exists():
    # tier-1 does not collect perfbench/, so a name it imports that the
    # package dropped would otherwise first fail in a benchmark run
    files = sorted(_PERFBENCH.glob("*.py"))
    pairs = [pair for path in files for pair in _package_imports(path)]
    assert ("ospq", "fockrep") in pairs and ("ospq.uqosp", "catalog") in pairs
    assert _unresolved(pairs) == []


def test_the_import_check_sees_a_missing_name(tmp_path):
    path = tmp_path / "bench.py"
    path.write_text(
        "import ospq\n"
        "from ospq import fockrep, no_such_module\n"
        "from ospq.uqosp import catalog, no_such_name\n"
        "from numpy import no_such_thing\n",
        encoding="utf-8",
    )
    assert _unresolved(_package_imports(path)) == [
        "no_such_module from ospq",
        "no_such_name from ospq.uqosp",
    ]
