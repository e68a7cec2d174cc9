"""The package's layering, read from its source with ``ast``: ``timeline``
owns the records and imports no package module, every package import sits
at a module's top level, only ``timeline`` sets a record's run stamp, and
only FISTA runs a line search or reads the NLL's curvature."""

import ast
from pathlib import Path

import pytest

import tvhazard

SOURCES = {p.stem: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(Path(tvhazard.__file__).parent.glob("*.py"))}


def package_imports(node):
    """The package imports anywhere under ``node``: relative ones and those of ``tvhazard``."""
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith("tvhazard")):
            yield n
        elif isinstance(n, ast.Import) and any(a.name.split(".")[0] == "tvhazard" for a in n.names):
            yield n


def test_every_module_is_read():
    assert {"timeline", "likelihood", "baseline", "cli"} <= set(SOURCES)


def test_timeline_imports_no_package_module():
    assert [ast.unparse(n) for n in package_imports(SOURCES["timeline"])] == []


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_package_imports_sit_at_the_top_level(module):
    functions = [n for n in ast.walk(SOURCES[module])
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert [ast.unparse(n) for f in functions for n in package_imports(f)] == []


def run_stamp_stores(tree):
    """Where ``tree`` may set ``Observation._runs``: an attribute store, or
    the name handed to ``setattr`` or ``object.__setattr__``."""
    return [ast.unparse(n) for n in ast.walk(tree)
            if (isinstance(n, ast.Attribute) and n.attr == "_runs"
                and not isinstance(n.ctx, ast.Load))
            or (isinstance(n, ast.Constant) and n.value == "_runs")]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_only_timeline_sets_the_run_stamp(module):
    stores = run_stamp_stores(SOURCES[module])
    assert bool(stores) == (module == "timeline"), stores


def uses(name):
    """``module.definition`` of every use of ``name`` in the package (a
    name, an attribute or a string constant, as ``getattr`` takes it), by
    the module's top-level definition that holds it."""
    return [f"{module}.{getattr(top, 'name', '<module>')}"
            for module, tree in SOURCES.items() for top in tree.body for n in ast.walk(top)
            if (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            or (isinstance(n, ast.Constant) and n.value == name)]


@pytest.mark.parametrize("name", ["_backtrack", "hessian_diagonal"])
def test_only_fista_searches_and_reads_the_curvature(name):
    # the start measures its reference with one prox; a line search or a
    # curvature read anywhere else is a second search path
    assert uses(name) == ["solver._fit_full_batch"]
