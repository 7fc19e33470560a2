"""Every name a module imports is used in that module.

Each module under ``src/polytoric/`` and ``tests/`` is parsed with
``ast``.  An imported name counts as used when it appears as a ``Name``
anywhere in the module (``binom.ZERO`` uses ``binom``), or in a string
annotation such as ``other: "GridPoint"``.  Only ``from __future__
import annotations`` is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src" / "polytoric").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        (line, name) for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name}: imported but unused: " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_scan_sees_modules():
    assert any(p.name == "binom.py" for p in MODULES)
    assert any(p.name == "test_imports.py" for p in MODULES)
