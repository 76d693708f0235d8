"""Every exported or re-exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import critfield

MODULES = sorted(m.name for m in pkgutil.iter_modules(critfield.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"critfield.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"critfield.{name}.__all__ names undefined: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(critfield.__file__).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"critfield.{node.module}")
            missing += [
                f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)
            ]
    assert not missing, f"critfield/__init__.py imports undefined names: {missing}"
