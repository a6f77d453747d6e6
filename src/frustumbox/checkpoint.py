"""Binary checkpoint container for model parameters and training state.

Layout (all integers little-endian):

    bytes 0..7    magic ``FBOXCKPT``
    bytes 8..11   uint32 format version (currently 1)
    bytes 12..19  uint64 header length in bytes
    header        UTF-8 JSON: {"format_version", "config", "arrays", "extras"}
    payload       the arrays' float64 little-endian buffers, row-major,
                  concatenated in header order

``arrays`` is a list of {"name", "shape", "kind"} where kind is "param" for
model parameters and "extra" for optimizer or bookkeeping buffers. Loading
validates magic, version, header length and encoding, array shapes (lists
of non-negative ints), and payload length, and raises ``CheckpointError``
on any of them; name/shape validation against a model happens in the model
loader.

A checkpoint is written to ``<path>.tmp`` and then renamed over ``path``, so
a write that dies part-way leaves any previous checkpoint at ``path`` intact.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError

MAGIC = b"FBOXCKPT"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    params: dict
    extras: dict
    extra_arrays: dict


def save_checkpoint(path, config, params, extras=None, extra_arrays=None):
    """Write a checkpoint; byte-identical for identical inputs."""
    extras = extras or {}
    extra_arrays = extra_arrays or {}
    entries = []
    buffers = []
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape), "kind": "param"})
        buffers.append(arr)
    for name in sorted(extra_arrays):
        arr = np.ascontiguousarray(extra_arrays[name], dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape), "kind": "extra"})
        buffers.append(arr)
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "config": config,
            "arrays": entries,
            "extras": extras,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for arr in buffers:
                fh.write(arr.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_checkpoint(path):
    """Read a checkpoint back into a :class:`Checkpoint`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header_start = len(MAGIC) + 12
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    if len(blob) < header_start:
        raise CheckpointError(f"{path}: truncated before the header length")
    version, header_len = struct.unpack_from("<IQ", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    offset = header_start + header_len
    if offset > len(blob):
        raise CheckpointError(f"{path}: truncated inside the header")
    params = {}
    extra_arrays = {}
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; KeyError and
    # TypeError mean JSON that is not a checkpoint header
    try:
        header = json.loads(blob[header_start:offset].decode("utf-8"))
        config, extras = header["config"], header.get("extras", {})
        for entry in header["arrays"]:
            shape = entry["shape"]
            if not (isinstance(shape, list) and all(
                    type(n) is int and n >= 0 for n in shape)):
                raise CheckpointError(
                    f"{path}: malformed header: array {entry['name']!r} has shape {shape!r}"
                )
            shape = tuple(shape)
            count = int(np.prod(shape)) if shape else 1
            nbytes = count * 8
            if offset + nbytes > len(blob):
                raise CheckpointError(f"{path}: truncated payload at {entry['name']!r}")
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
            offset += nbytes
            target = params if entry["kind"] == "param" else extra_arrays
            target[entry["name"]] = arr
    except (ValueError, KeyError, TypeError) as err:
        raise CheckpointError(f"{path}: malformed header: {err!r}") from None
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return Checkpoint(
        config=config,
        params=params,
        extras=extras,
        extra_arrays=extra_arrays,
    )
