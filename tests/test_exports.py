"""Every name the package exports exists: each module's ``__all__`` and
each name ``spiderlab/__init__.py`` imports, so removing a name leaves no
stale entry behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spiderlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(spiderlab.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_exists(name):
    module = importlib.import_module(f"spiderlab.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(spiderlab.__file__).read_text())
    imported = [("." * node.level + (node.module or ""), alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    missing = [(source, name) for source, name in imported
               if not hasattr(importlib.import_module(source, "spiderlab"), name)]
    assert missing == []
