"""The benchmark's hooks into the package, read from its source.

``bench/run.py --trace 1`` rebinds, in ``spiderlab.cli``, ``montecarlo`` and
``verify``, the names ``trace_targets`` lists; a refactor that drops one
breaks the traced run, not an untraced one, and a name the package imports
only for it must be one of them.  The bench scripts import scipy, so they
are parsed with ``ast`` rather than imported.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src" / "spiderlab"


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


def _trace_targets():
    """(module, name) of every entry ``trace_targets`` returns, read from
    bench/run.py."""
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
    return [(modules[t.elts[0].id], t.elts[1].value) for t in ret.value.elts]


def test_every_trace_target_is_bound_where_it_is_rebound():
    targets = _trace_targets()
    assert {module for module, _ in targets} == {
        "spiderlab.cli", "spiderlab.montecarlo", "spiderlab.verify"}
    for module, name in targets:
        assert hasattr(importlib.import_module(module), name), f"{module} has no {name}"


def test_every_unused_import_in_the_package_is_a_trace_target_there():
    # An import kept only for the traced run must not outlive its target.
    targets = set(_trace_targets())
    kept = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.lineno - 1]:
                kept += [(f"spiderlab.{path.stem}", a.asname or a.name) for a in node.names]
    assert kept and set(kept) <= targets, sorted(set(kept) - targets)
