"""Process-level promises of the package: the BLAS single-thread pin."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_blas_pinned_when_numpy_is_imported_first():
    # numpy loads its BLAS with two threads before frustumbox can set the
    # environment, so only the pin after import can bring it to one
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import numpy; import frustumbox; print(frustumbox.BLAS_SINGLE_THREAD)"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
    assert "warning" not in proc.stderr
