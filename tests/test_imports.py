"""Every name a module imports is used in that module, and every
top-level definition of the package is used in the package.

Each module under ``src/polytoric/`` and ``tests/`` is parsed with
``ast``.  An imported name counts as used when it appears as a ``Name``
anywhere in the module (``binom.ZERO`` uses ``binom``), or in a string
annotation such as ``other: "GridPoint"``.  Only ``from __future__
import annotations`` is exempt.

A top-level function or class of ``src/polytoric/``, private (a name
with one leading underscore) or public, counts as used when a ``Name``
or an attribute of that name appears in some package module outside its
own definition.  Tests do not count: code that only tests call is dead
code, and a public name that only tests call is a capability that the
package does not need.

Every top-level function or class of ``tests/helpers.py`` counts as used
when a test module names it, or a helper that is used names it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "polytoric").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


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


def unreferenced_definitions(sources: dict[str, str], private: bool) -> list[str]:
    """"module:line name" of each top-level function or class in
    ``sources`` (module name -> text), private or public as ``private``
    says, that no other code there names."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    named = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("_") != private or node.name.startswith("__")):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and key not in own for name, key in named):
                out.append(f"{module}:{node.lineno} {node.name}")
    return out


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    unreferenced = unreferenced_definitions(sources, private=True)
    assert not unreferenced, "defined but never used: " + ", ".join(unreferenced)


def test_no_unreferenced_public_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    unreferenced = unreferenced_definitions(sources, private=False)
    assert not unreferenced, "defined but never used by the package: " + ", ".join(unreferenced)


def test_private_definition_scan_sees_dead_code():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\ndef _recursive(n):\n"
                "    return _recursive(n - 1)\n\n\nclass _Dead:\n    pass\n",
        "b.py": "from a import _used\n\nVALUE = _used()\n",
    }
    assert unreferenced_definitions(sources, private=True) == [
        "a.py:5 _recursive", "a.py:9 _Dead"]


def test_public_definition_scan_sees_dead_code():
    sources = {
        "a.py": "def used():\n    return 1\n\n\ndef only_tested():\n    return used()\n",
        "b.py": "from a import used\n\nVALUE = used()\n",
    }
    assert unreferenced_definitions(sources, private=False) == ["a.py:5 only_tested"]


def unreferenced_helpers(helpers: str, tests: dict[str, str]) -> list[str]:
    """"line name" of each top-level function or class in the module text
    ``helpers`` that no module of ``tests`` (name -> text) names, either
    directly or through helpers that are named."""

    def names(node) -> set[str]:
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    defs = {node.name: node for node in ast.parse(helpers).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = set()
    for text in tests.values():
        used |= names(ast.parse(text)) & defs.keys()
    search = list(used)
    while search:
        more = names(defs[search.pop()]) & defs.keys() - used
        used |= more
        search += more
    return [f"{node.lineno} {name}" for name, node in defs.items() if name not in used]


def test_every_helper_is_used_by_a_test():
    tests = {p.name: p.read_text(encoding="utf-8")
             for p in (ROOT / "tests").glob("*.py") if p.name != "helpers.py"}
    helpers = (ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")
    unreferenced = unreferenced_helpers(helpers, tests)
    assert not unreferenced, "helpers that no test uses: " + ", ".join(unreferenced)


def test_helper_scan_sees_dead_helpers():
    helpers = ("def used():\n    return inner()\n\n\ndef inner():\n    return 1\n\n\n"
               "def dead():\n    return only_dead()\n\n\ndef only_dead():\n    return 2\n")
    tests = {"test_a.py": "from helpers import used\n\n\ndef test_a():\n    assert used()\n"}
    assert unreferenced_helpers(helpers, tests) == ["9 dead", "13 only_dead"]
