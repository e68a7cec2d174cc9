"""The demos and the README's quick start, the public API's callers outside
the tests, run to completion without a warning: every package warning is a
``UserWarning``, so a fit that stops uncertified fails them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import tvhazard

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# a UserWarning (a package warning among them) ends the script with an error
CLEAN = ["-W", "error::UserWarning"]


def run_fresh(args, cwd):
    """Run ``python args`` in a new interpreter with the package on ``PYTHONPATH``."""
    package_root = Path(tvhazard.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_root), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env
    )


def test_every_demo_exits_zero(tmp_path):
    assert DEMOS, "no demos found"
    for demo in DEMOS:
        proc = run_fresh([*CLEAN, str(demo)], tmp_path)
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"


def test_readme_quick_start_exits_zero(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    proc = run_fresh([*CLEAN, "-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, f"README quick start exited {proc.returncode}:\n{proc.stderr}"
