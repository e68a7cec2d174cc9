"""The package's layering, read from its source with ``ast``: ``timeline``
owns the records and imports no package module, every package import sits
at a module's top level, only ``timeline`` sets a record's run stamp,
every fit runs one solver route, FISTA, which alone runs a line search or
reads the NLL's curvature, no module imports ``scipy.optimize`` (nor does
``import tvhazard``, checked in a fresh interpreter), and JSON is parsed
only by the three readers, each under ``formats._MALFORMED``."""

import ast
import os
import subprocess
import sys
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


def test_every_fit_runs_one_route():
    # gamma = 0 runs FISTA on its limit problem too; a second route is a
    # second optimizer to certify
    assert uses("_fit_full_batch") == ["solver.fit"]


def test_no_module_imports_scipy_optimize():
    # the isotonic projection and the proportional baseline run on NumPy and
    # Python lists; scipy.optimize cost most of the import's time.  Both
    # ``import scipy.optimize`` and ``from scipy import optimize`` count
    imported = [(module, a.name if isinstance(n, ast.Import) else f"{n.module}.{a.name}")
                for module, tree in SOURCES.items() for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names]
    assert [(m, name) for m, name in imported if name.startswith("scipy.optimize")] == []


def test_import_loads_no_scipy_optimize(tmp_path):
    # a fresh interpreter: a SciPy module that loads scipy.optimize itself
    # would bring its import time and memory back
    package_root = Path(tvhazard.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(package_root), env.get("PYTHONPATH")) if p)
    code = "import sys, tvhazard; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_json_is_parsed_only_at_the_three_refusal_sites():
    # each reader refuses outside input under the one rule; a fourth parse
    # site, or a reader that skips the rule, can crash the command line
    assert uses("loads") == ["formats.read_observations"]
    assert sorted(uses("load")) == ["cli._load_campaign_spec", "formats.read_model"]
    for site in uses("loads") + uses("load"):
        assert site in uses("_MALFORMED"), site
