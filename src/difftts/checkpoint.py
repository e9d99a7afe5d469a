"""Versioned binary checkpoint container.

Layout: magic "DVCKPT01", u32 version, 32-byte config hash, u32 tensor
count, then per tensor: u32 name length, UTF-8 name, u32 rank, u64 dims,
f32 little-endian values.  Everything the trainer needs to resume exactly
(parameters, Adam moments, counters, the stats-file reference, and the
vocabulary) is expressed as named tensors so round-trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"DVCKPT01"
VERSION = 1


class CheckpointError(ValueError):
    """Unreadable checkpoint or config mismatch."""


def string_to_tensor(text: str) -> np.ndarray:
    """Unicode codepoints as f32 (exact below 2^24; all codepoints qualify)."""
    return np.array([ord(ch) for ch in text], dtype=np.float32)


def tensor_to_string(values: np.ndarray) -> str:
    return "".join(chr(int(v)) for v in np.asarray(values).reshape(-1))


def save_checkpoint(path, config_hash: bytes, tensors: dict[str, np.ndarray]) -> None:
    """Write to a temporary file beside ``path``, then rename it over ``path``.

    A process that dies mid-write leaves the previous checkpoint intact.  The
    data is not fsynced, so this does not guard against power loss.
    """
    if len(config_hash) != 32:
        raise CheckpointError("config hash must be 32 bytes")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(config_hash)
            f.write(struct.pack("<I", len(tensors)))
            for name, value in tensors.items():
                raw = name.encode("utf-8")
                arr = np.ascontiguousarray(value, dtype="<f4")
                f.write(struct.pack("<I", len(raw)))
                f.write(raw)
                f.write(struct.pack("<I", arr.ndim))
                for dim in arr.shape:
                    f.write(struct.pack("<Q", dim))
                f.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[bytes, dict[str, np.ndarray]]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    try:
        (version,) = struct.unpack_from("<I", blob, 8)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        config_hash = blob[12:44]
        (count,) = struct.unpack_from("<I", blob, 44)
        offset = 48
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}Q", blob, offset) if rank else ()
            offset += 8 * rank
            n = int(np.prod(dims)) if dims else 1
            if len(blob) - offset < 4 * n:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            values = np.frombuffer(blob, dtype="<f4", count=n, offset=offset)
            offset += 4 * n
            tensors[name] = values.reshape(dims).copy()
    except (struct.error, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from exc
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes after the last tensor")
    return config_hash, tensors
