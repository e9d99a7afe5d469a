"""Versioned binary container (format version 2) of checkpoints and mel stats.

Layout, little-endian: magic "DVCKPT01", u32 version, u32 metadata length,
UTF-8 JSON metadata, u32 tensor count, then per tensor: u32 name length,
UTF-8 name, u32 rank, u64 dims, f32 values; the file ends with the CRC-32
of every byte before it.  The metadata holds what is not a tensor (a
trainer's config lines, vocabulary, stats-file path and counters; mel stats'
frame count and config fingerprint), so strings and integers round-trip
exactly; tensors round-trip bit-exactly.  Version 1 files are rejected.

Loading makes two passes over the file: the CRC is checked in 1 MB chunks
before any field is parsed, then each tensor is read straight into its own
array, so peak memory is the size of the tensors, not twice the file.
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
_CHUNK = 1 << 20  # bytes per read while checking the CRC


class CheckpointError(ValueError):
    """Unreadable checkpoint or config mismatch."""


def save_checkpoint(path, metadata: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write to a temporary file beside ``path``, then rename it over ``path``.

    A process that dies mid-write leaves the previous checkpoint intact.  The
    data is not fsynced, so this does not guard against power loss.  A
    temporary file that cannot be created raises CheckpointError naming ``path``.
    """
    meta = json.dumps(metadata, sort_keys=True, allow_nan=False).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        f = open(tmp, "wb")
    except OSError as exc:
        raise CheckpointError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with f:
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
        with open(path, "rb") as f:
            return _read_checkpoint(f, path)
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_checkpoint(f, path) -> tuple[dict, dict[str, np.ndarray]]:
    head = f.read(16)
    if head[:8] != MAGIC or len(head) < 16:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", head, 8)
    if version != VERSION:
        raise CheckpointError(f"{path}: checkpoint format version {version} is not "
                              f"supported (this build reads version {VERSION})")
    end = os.fstat(f.fileno()).st_size - 4  # the body: every byte before the CRC
    f.seek(0)
    crc = 0
    for offset in range(0, end, _CHUNK):
        crc = zlib.crc32(f.read(min(_CHUNK, end - offset)), crc)
    if crc != int.from_bytes(f.read(4), "little"):
        raise CheckpointError(f"{path}: checksum mismatch; the file is truncated or corrupt")

    def take(fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if end - f.tell() < size:
            raise struct.error(f"{size} bytes wanted at offset {f.tell()}, {end - f.tell()} left")
        return struct.unpack(fmt, f.read(size))

    f.seek(12)
    try:
        (meta_len,) = take("<I")
        metadata = json.loads(str(f.read(min(meta_len, end - f.tell())), "utf-8"))
        if not isinstance(metadata, dict):
            raise CheckpointError(f"{path}: metadata is not a JSON object")
        (count,) = take("<I")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = take("<I")
            name = str(f.read(min(name_len, end - f.tell())), "utf-8")
            (rank,) = take("<I")
            dims = take(f"<{rank}Q")
            if end - f.tell() < 4 * math.prod(dims):
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            try:  # a zero-size shape passes the check above whatever its dims
                values = np.empty(dims, dtype="<f4")
            except ValueError as exc:
                raise CheckpointError(f"{path}: tensor {name!r} has shape {dims}: {exc}") from exc
            if f.readinto(values) != values.nbytes:  # shrunk since the CRC pass
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            tensors[name] = values
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from exc
    if f.tell() != end:
        raise CheckpointError(f"{path}: {end - f.tell()} trailing bytes after the last tensor")
    return metadata, tensors
