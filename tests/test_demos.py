"""The demos, the public API's callers outside the tests, run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import tvhazard

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_exits_zero(tmp_path):
    assert DEMOS, "no demos found"
    package_root = Path(tvhazard.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_root), env.get("PYTHONPATH")) if p
    )
    for demo in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env
        )
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"
