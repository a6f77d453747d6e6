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


def test_autodiff_engine_demo():
    proc = run_demo("03_autodiff_engine.py")
    assert proc.returncode == 0, proc.stderr
    assert "attention weights shape (1, 2, 5, 5), rows sum to 1.0" in proc.stdout
    line = next(l for l in proc.stdout.splitlines() if "vs finite-diff" in l)
    analytic, numeric = (float(w) for w in line.split() if w[0] in "-0123456789")
    assert abs(analytic - numeric) < 1e-6 * max(1.0, abs(numeric)), line


def test_attention_maps_demo():
    proc = run_demo("06_attention_maps.py")
    assert proc.returncode == 0, proc.stderr
    assert "reference row sums to 1.000000000000" in proc.stdout
    row_sums = [l for l in proc.stdout.splitlines() if "(row sum 1.000000000)" in l]
    assert len(row_sums) == 7, proc.stdout


def test_rotated_box_iou_demo():
    proc = run_demo("02_rotated_box_iou.py")
    assert proc.returncode == 0, proc.stderr
    analytic, loss_iou = (float(l.split("=")[-1]) for l in proc.stdout.splitlines()
                          if l.startswith(("analytic IoU", "training-loss IoU")))
    assert abs(analytic - loss_iou) < 1e-9, proc.stdout
