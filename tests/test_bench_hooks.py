"""The benchmark's hooks into the package, read from its source.

``bench/run.py --trace 1`` rebinds, in ``spiderlab.cli``, ``montecarlo`` and
``verify``, the names ``trace_targets`` lists; a refactor that drops one
breaks the traced run, not an untraced one.  The bench scripts import scipy,
so they are parsed with ``ast`` rather than imported.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spiderlab_imports(tree):
    """(module, name, alias) of every ``from spiderlab... import name``, and
    (module, None, alias) of every ``import spiderlab... as alias``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spiderlab"):
            out += [(node.module, a.name, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name, None, a.asname or a.name) for a in node.names
                    if a.name.startswith("spiderlab")]
    return out


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_every_name_the_bench_imports_from_the_package_exists(script):
    tree = ast.parse((BENCH / script).read_text())
    for module, name, _ in _spiderlab_imports(tree):
        imported = importlib.import_module(module)
        if name is not None:  # an attribute, or a submodule not yet imported
            assert (hasattr(imported, name)
                    or importlib.util.find_spec(f"{module}.{name}") is not None), \
                f"{script}: {module} has no {name}"


def test_every_trace_target_is_bound_where_it_is_rebound():
    tree = ast.parse((BENCH / "run.py").read_text())
    modules = {}
    for module, name, alias in _spiderlab_imports(tree):
        if name is None:
            modules[alias] = module
        elif importlib.util.find_spec(f"{module}.{name}") is not None:
            modules[alias] = f"{module}.{name}"
    [func] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "trace_targets"]
    for node in ast.walk(func):  # local aliases such as ``mc, vf = montecarlo, verify_mod``
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                modules[target.id] = modules[value.id]
    [ret] = [n for n in ast.walk(func) if isinstance(n, ast.Return)]
    targets = [(modules[t.elts[0].id], t.elts[1].value) for t in ret.value.elts]
    assert {module for module, _ in targets} == {
        "spiderlab.cli", "spiderlab.montecarlo", "spiderlab.verify"}
    for module, name in targets:
        assert hasattr(importlib.import_module(module), name), f"{module} has no {name}"
