"""Every name a module exports resolves, so a deletion cannot leave a stale
export; importing the package loads no more than it uses."""

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
