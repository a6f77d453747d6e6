"""Batched prediction on both CPUs of a pinned pair, and the export path.

The annotator's output boxes live in label files at two-decimal precision.
:func:`prediction_record` is the row a prediction exports as, and
:func:`quantize_prediction` is that row serialized, parsed and read back
the way ``eval`` reads it, so ``evaluate.evaluate_model`` scores exactly
what ``frustumbox eval`` scores on the files ``annotate`` writes. The
head bounds every extent to at least e^-2 m (``model.LOG_EXTENT_CAP``),
far above the 0.01 m the format resolves, so every prediction exports as
is.

Batch composition matters when the cross-object encoder is on, so inference
batching is pinned: samples are processed in their given order in chunks of
``batch_size`` with the final partial chunk kept. :func:`forward_chunks`
forwards those chunks on two threads, the caller and one more, each pinned
to its own half of the allowed CPUs: each thread takes the next chunk under
one lock and forwards it outside the lock, and the results come back in
chunk order. A forward is a pure function of its chunk, and it runs under
``tensor.no_grad``, a per-thread context variable, so no graph is built and
the outputs are those of one serial loop, byte for byte. ``predict_samples``
hands it its list's chunks; ``annotate`` hands it a generator that prepares
the frames, one at a time and in manifest order, as chunks are taken.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import NumericError
from .kitti import (
    label_from_lidar_box,
    parse_kitti_label,
    scored_box_from_label,
    serialize_kitti_label,
)
from .model import decode_prediction, direction_score


@dataclass
class Prediction:
    sample: object
    box: object  # Box3D in the original sensor frame
    score: float


# glibc's mallopt parameter for the most malloc arenas a process may hold.
_M_ARENA_MAX = -8


def _single_malloc_arena():
    """Keep every thread's allocations in glibc's main arena.

    A thread that allocates otherwise gets an arena of its own, which keeps
    the largest frame's transients for the rest of the process and so adds
    to the peak resident size. Skipped silently where the C library has no
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _run_on_pinned_pair(work):
    """Run ``work()`` on this thread and, at the same time, on one more.

    Left to place them, the scheduler often wakes each thread on the CPU
    of the one that woke it; the two then share one CPU for a whole
    command while another idles, and a run takes a third longer or more, or
    not, depending on where the first wake-up landed. So with two or more
    allowed CPUs and ``sched_setaffinity``, this thread is pinned to the
    first half of them and the other thread to the second half, and this
    thread's CPU set is restored once both have returned. Otherwise
    ``work()`` runs on this thread alone.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        work()
        return
    _single_malloc_arena()
    half = len(cpus) // 2

    def pinned():
        os.sched_setaffinity(0, cpus[half:])
        work()

    helper = threading.Thread(target=pinned, name="frustumbox-forward")
    helper.start()
    try:
        os.sched_setaffinity(0, cpus[:half])
        work()
    finally:
        helper.join()
        os.sched_setaffinity(0, cpus)


def forward_chunks(chunks, forward):
    """``[forward(chunk) for chunk in chunks]``, on both threads of the
    pinned pair.

    Each thread takes the next chunk under one lock, so the iterable is
    advanced by one thread at a time and in its own order, and calls
    ``forward`` outside the lock. After a failure, in ``forward`` or in the
    iterable, no thread takes another chunk; the chunks already taken
    finish, and the error raised is the earliest chunk's, whichever thread
    failed first, so it is the error a serial loop raises.
    """
    lock = threading.Lock()
    chunks = iter(chunks)
    results, failures = [], {}

    def drain():
        index = 0
        try:
            while True:
                with lock:
                    index = len(results)
                    chunk = None if failures else next(chunks, None)
                    if chunk is None:
                        return
                    results.append(None)
                results[index] = forward(chunk)
        except BaseException as err:  # noqa: BLE001 - raised below, in chunk order
            with lock:
                failures[index] = err

    _run_on_pinned_pair(drain)
    if failures:
        raise failures[min(failures)]
    return results


def _predict_chunk(model, chunk):
    points = np.stack([s.points for s in chunk])
    with T.no_grad():
        fwd = model.forward(points)
    rows, logits = fwd.boxes.data, fwd.direction_logits.data
    finite = np.isfinite(rows).all(axis=1) & np.isfinite(logits).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))  # the first object with a non-finite output
        raise NumericError(f"non-finite prediction for object {chunk[i].object_id}: "
                           f"box {rows[i].tolist()}, direction logits {logits[i].tolist()}")
    return [Prediction(sample=s, box=decode_prediction(row, logit, centroid=s.centroid),
                       score=direction_score(logit))
            for s, row, logit in zip(chunk, rows, logits)]


def predict_samples(model, samples, batch_size):
    """Forward every sample once, building no graph; deterministic chunking
    in list order. Two or more chunks are shared out by
    :func:`forward_chunks`; one is forwarded on this thread (``annotate``
    hands over its chunks one at a time). Raises NumericError naming the
    first object whose box row or direction logits are not finite."""
    chunks = [samples[lo : lo + batch_size] for lo in range(0, len(samples), batch_size)]
    if len(chunks) < 2:
        return [p for chunk in chunks for p in _predict_chunk(model, chunk)]
    return [p for preds in forward_chunks(chunks, lambda chunk: _predict_chunk(model, chunk))
            for p in preds]


def prediction_record(pred):
    """The label record a prediction exports as (pre-quantization)."""
    s = pred.sample
    return label_from_lidar_box(s.cls, pred.box, s.box2d, s.calib, score=pred.score)


def quantize_prediction(pred):
    """A prediction as eval reads its exported label row: (sensor-frame
    box, score) after serializing, parsing and reading the row back."""
    (row,) = parse_kitti_label(serialize_kitti_label([prediction_record(pred)]))
    return scored_box_from_label(row, pred.sample.calib)


def object_key(frame_id, box2d):
    """Stable cross-file object identity: the frame plus its 2D box at the
    serialized precision."""
    return (
        f"{frame_id}:{box2d.u_min:.2f},{box2d.v_min:.2f},"
        f"{box2d.u_max:.2f},{box2d.v_max:.2f}"
    )
