"""Versioned binary container (format version 2) of checkpoints and mel stats.

Layout, little-endian: magic "DVCKPT01", u32 version, u32 metadata length,
UTF-8 JSON metadata, u32 tensor count, then per tensor: u32 name length,
UTF-8 name, u32 rank, u64 dims, f32 values; the file ends with the CRC-32
of every byte before it.  The metadata holds what is not a tensor (a
trainer's config lines, vocabulary, stats-file path and counters; mel stats'
frame count and config fingerprint), so strings and integers round-trip
exactly; tensors round-trip bit-exactly.  Version 1 files are rejected.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"DVCKPT01"
VERSION = 2


class CheckpointError(ValueError):
    """Unreadable checkpoint or config mismatch."""


def save_checkpoint(path, metadata: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write to a temporary file beside ``path``, then rename it over ``path``.

    A process that dies mid-write leaves the previous checkpoint intact.  The
    data is not fsynced, so this does not guard against power loss.
    """
    meta = json.dumps(metadata, sort_keys=True, allow_nan=False).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            crc = 0

            def put(chunk) -> None:
                nonlocal crc
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)

            put(MAGIC + struct.pack("<II", VERSION, len(meta)) + meta
                + struct.pack("<I", len(tensors)))
            for name, value in tensors.items():
                raw = name.encode("utf-8")
                arr = np.asarray(value, dtype="<f4", order="C")  # keeps rank 0
                put(struct.pack("<I", len(raw)) + raw
                    + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
                put(arr)
            f.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Return the metadata and the named tensors of a checkpoint file."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if blob[:8] != MAGIC or len(blob) < 16:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != VERSION:
        raise CheckpointError(f"{path}: checkpoint format version {version} is not "
                              f"supported (this build reads version {VERSION})")
    body = memoryview(blob)[:-4]
    if zlib.crc32(body) != struct.unpack_from("<I", blob, len(body))[0]:
        raise CheckpointError(f"{path}: checksum mismatch; the file is truncated or corrupt")
    try:
        (meta_len,) = struct.unpack_from("<I", body, 12)
        offset = 16 + meta_len
        metadata = json.loads(str(body[16:offset], "utf-8"))
        if not isinstance(metadata, dict):
            raise CheckpointError(f"{path}: metadata is not a JSON object")
        (count,) = struct.unpack_from("<I", body, offset)
        offset += 4
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", body, offset)
            offset += 4
            name = str(body[offset:offset + name_len], "utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", body, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}Q", body, offset) if rank else ()
            offset += 8 * rank
            n = math.prod(dims)
            if len(body) - offset < 4 * n:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            values = np.frombuffer(body, dtype="<f4", count=n, offset=offset)
            offset += 4 * n
            tensors[name] = values.reshape(dims).copy()
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from exc
    if offset != len(body):
        raise CheckpointError(f"{path}: {len(body) - offset} trailing bytes after the last tensor")
    return metadata, tensors
