"""Every name a module exports resolves, so a deletion cannot leave a stale
export; every name the package exports has a caller; importing the
package loads no more than it uses."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import so3p

MODULES = ["so3p", *(f"so3p.{m.name}" for m in pkgutil.iter_modules(so3p.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_import_maps_no_openssl():
    # hashlib loads OpenSSL's _hashlib; only sample_so3_batch's stream
    # seeds need it, so importing the package and the CLI must not
    src = Path(so3p.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import so3p, so3p.cli; "
        "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "[]\n"


# Exports with no caller in the package, the benchmark or the README quick
# tour, each kept for a reason of its own.
KEPT = {
    "sample_so3": "the one-draw form of sample_so3_batch's law, which invariance_report follows draw for draw",
}


def _references(tree) -> set:
    """The names a syntax tree uses as code: Name ids and Attribute attrs."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _quick_tour(readme: str) -> str:
    tour = readme[readme.index("## Python quick tour") :]
    return tour[tour.index("```python") + len("```python") : tour.index("```\n", tour.index("```python") + 1)]


def test_every_export_has_a_caller():
    # A definition is live when module-level code in src/so3p, a script in
    # bench/ or the README quick tour uses it, or a live definition does.
    # Imports and __all__ entries are no uses, and neither is a use inside
    # a definition that is not live.
    src = Path(so3p.__file__).resolve().parent
    root = src.parents[1]
    owned: dict = {}
    live_roots = _references(ast.parse(_quick_tour((root / "README.md").read_text())))
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owned.setdefault(node.name, set()).update(_references(node))
            else:
                live_roots |= _references(node)
    for path in sorted((root / "bench").glob("*.py")):
        live_roots |= _references(ast.parse(path.read_text()))
    live, todo = set(), list(live_roots)
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(owned.get(name, ()))
    uncalled = sorted(set(so3p.__all__) - live - KEPT.keys())
    assert uncalled == [], f"exports with no caller: {uncalled}"
    # a kept name is exported and still has no caller
    assert sorted(KEPT.keys() - set(so3p.__all__)) == []
    assert sorted(KEPT.keys() & live) == []
