"""The package's export list: ``__all__`` names exactly what ``__init__`` imports."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import tvhazard

SCRIPT = """
import json, types
import tvhazard
star = {}
exec("from tvhazard import *", star)
public = [n for n, v in vars(tvhazard).items()
          if not n.startswith("_") and not isinstance(v, types.ModuleType)]
print(json.dumps([sorted(set(star) - {"__builtins__"}), sorted(public), tvhazard.__all__]))
"""


def test_star_import_gives_exactly_the_public_names(tmp_path):
    # a fresh interpreter: a stale __all__ entry fails the star import there
    package_root = Path(tvhazard.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(package_root), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    star, public, names = json.loads(proc.stdout)
    assert star == public
    assert len(names) == len(set(names))


def test_numerical_error_is_one_class():
    # the design raises it, the solver re-exports it, and the CLI maps it to exit 3
    import tvhazard.likelihood
    import tvhazard.solver

    assert tvhazard.solver.NumericalError is tvhazard.likelihood.NumericalError
    assert tvhazard.NumericalError is tvhazard.likelihood.NumericalError


def test_every_export_is_named_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # a code span that opens with the name: `fit(...)`, `KnotSet` or `FitResult.stop`
    assert [n for n in tvhazard.__all__ if not re.search(rf"`{n}\b", readme)] == []


def names_used(paths):
    """Every name ``paths`` read or import: a ``Name``, an ``Attribute`` and
    an imported alias count; a ``def`` or ``class`` statement does not."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return used


def test_every_export_is_used_outside_the_tests():
    # an export only tests call belongs in the tests: the package's own
    # modules, the demos or the benchmark must reach each one
    root = Path(__file__).resolve().parents[1]
    package = Path(tvhazard.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    assert {"cli", "run", "regularization_sweep"} <= {p.stem for p in paths}
    used = names_used(paths)
    assert [n for n in tvhazard.__all__ if n not in used] == []
