"""Every name a module exports resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import so3p

MODULES = ["so3p", *(f"so3p.{m.name}" for m in pkgutil.iter_modules(so3p.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
