"""Shared plumbing: loading the program from source, running CLI commands
in-process, the train-step clock, and reading the label files a run wrote.

Nothing here imports numpy at module level. `import_program` must run
first: it imports frustumbox before numpy, exactly as the `frustumbox`
command does, so the package's single-thread BLAS pin takes effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no frustumbox sources to benchmark."""


def import_program():
    """Import frustumbox from this checkout's `src` (before numpy)."""
    init = SRC / "frustumbox" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no frustumbox sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import frustumbox

    if Path(frustumbox.__file__).resolve() != init.resolve():
        raise MissingProgram(f"frustumbox imported from {frustumbox.__file__}, not {init}")
    return frustumbox


def run_command(argv):
    """One `frustumbox` command through `frustumbox.cli.main`, output captured.

    Returns (exit code, stdout text, stderr text, wall seconds).
    """
    from frustumbox.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main([str(a) for a in argv])
        wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


class StepClock:
    """Reads only a clock around each `frustumbox.train.train_step` call.

    Records the wall time and batch size of every call and counts the
    steps that raised `NonFiniteLoss`. Installed for a block with `with`.
    """

    def __init__(self):
        self.step_s = []
        self.samples = 0
        self.non_finite = 0
        self._original = None

    def __enter__(self):
        import frustumbox.train as train_mod

        original = self._original = train_mod.train_step
        clock = self

        def train_step(model, points, *args, **kwargs):
            start = time.perf_counter()
            try:
                result = original(model, points, *args, **kwargs)
            except train_mod.NonFiniteLoss:
                clock.non_finite += 1
                raise
            clock.step_s.append(time.perf_counter() - start)
            clock.samples += len(points)
            return result

        train_mod.train_step = train_step
        return self

    def __exit__(self, *exc):
        import frustumbox.train as train_mod

        train_mod.train_step = self._original
        return False


def last_epoch_loss(metrics_path, epochs):
    """Mean total loss over the last epoch's steps of a `metrics.jsonl`."""
    records = [json.loads(line) for line in Path(metrics_path).read_text().splitlines()]
    steps = [r["total"] for r in records if "total" in r]
    per_epoch = len(steps) // epochs
    if per_epoch < 1 or len(steps) != per_epoch * epochs:
        raise ValueError(f"{metrics_path}: {len(steps)} steps over {epochs} epochs")
    if not all(math.isfinite(v) for v in steps):
        raise ValueError(f"{metrics_path}: non-finite loss")
    return sum(steps[-per_epoch:]) / per_epoch


def read_labels(root, frame):
    from frustumbox.kitti import parse_kitti_label

    return parse_kitti_label((Path(root) / "label_2" / f"{frame}.txt").read_text())


def box_key(record):
    b = record.box2d
    return (round(b.u_min, 2), round(b.v_min, 2), round(b.u_max, 2), round(b.v_max, 2))


def label_tally(dataset, pred_root):
    """Care rows of `dataset` against the label lines `annotate` wrote.

    Every written file must parse back; a missing file labels nothing.
    Returns (care rows, labeled rows, care rows with no label line),
    counted over the manifest's frames.
    """
    from frustumbox.kitti import manifest_frames

    care = labeled = missing = 0
    for frame in manifest_frames(dataset):
        want = [box_key(r) for r in read_labels(dataset, frame) if r.is_care]
        written = Path(pred_root) / "label_2" / f"{frame}.txt"
        got = {box_key(r) for r in read_labels(pred_root, frame)} if written.exists() else set()
        care += len(want)
        labeled += sum(1 for k in want if k in got)
        missing += sum(1 for k in want if k not in got)
    return care, labeled, missing


def tree_digest(root):
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def openblas_threads():
    """Effective OpenBLAS thread count of this process, or None if unknown.

    Read through the loaded library's own `*_get_num_threads` entry point
    with ctypes (threadpoolctl may be absent).
    """
    import ctypes

    candidates = []
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            candidates = sorted({line.split()[-1] for line in fh
                                 if "openblas" in line.rsplit("/", 1)[-1]})
    if not candidates:
        import numpy

        libs = Path(numpy.__file__).parent.parent / "numpy.libs"
        candidates = sorted(str(p) for p in libs.glob("*openblas*"))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy

    import frustumbox

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "frustumbox": frustumbox.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
