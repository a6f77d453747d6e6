"""The demos run as documented: each is a script that must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(REPO / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300, check=False)


def test_projection_and_frustums_demo():
    proc = run_demo("01_projection_and_frustums.py")
    assert proc.returncode == 0, proc.stderr
    assert "verified" in proc.stdout
