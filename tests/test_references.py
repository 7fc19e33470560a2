"""Every module-level function and class in ``src/polytoric/`` is used
by the library itself.

A name counts as used when some module of the package refers to it
outside the name's own definition: the rest of its module uses it
(``test_imports.used_names``), or another module imports it from there,
under any alias; ``test_imports`` checks that every import is used.  A
name that only the tests call belongs in ``tests/helpers.py``.
"""

import ast

import pytest
from test_imports import ROOT, used_names

SOURCES = sorted((ROOT / "src" / "polytoric").glob("*.py"))
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES}

# module -> the names other package modules import from it
IMPORTED: dict[str, set[str]] = {module: set() for module in TREES}
for tree in TREES.values():
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            IMPORTED.setdefault(f"{node.module}.py", set()).update(a.name for a in node.names)

# module -> the names each top-level statement uses, in order
USED = {module: [used_names(node) for node in tree.body] for module, tree in TREES.items()}


def unreferenced(module: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level function or class of ``module``
    that no other statement of the package refers to."""
    body = TREES[module].body
    out = []
    for k, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            rest = set().union(*(used for j, used in enumerate(USED[module]) if j != k))
            if node.name not in rest | IMPORTED[module]:
                out.append((node.lineno, node.name))
    return out


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unreferenced_definitions(module):
    missing = unreferenced(module)
    assert not missing, f"{module}: referenced nowhere in the package: " + ", ".join(
        f"{name} (line {line})" for line, name in missing
    )


def test_scan_sees_modules():
    assert {"binom.py", "toric.py"} <= set(TREES)
    assert "toric_generators" in IMPORTED["toric.py"]
