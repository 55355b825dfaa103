"""The export lists: every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quantrisk

MODULES = sorted(m.name for m in pkgutil.iter_modules(quantrisk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"quantrisk.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(quantrisk.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"quantrisk.{node.module}")
        exported = getattr(module, "__all__", None)
        assert exported is not None, node.module
        assert [a.name for a in node.names if a.name not in exported] == [], node.module
