"""Speaker embeddings: a stats-pooling baseline embedder plus ingestion of
externally computed embeddings, and the SIM-O cosine score."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .audio import MelSpectrogram

SPKEMB_MAGIC = b"SPKEMB01"


class EmbeddingFormatError(ValueError):
    """Unreadable or degenerate embedding data."""


@dataclass
class SpeakerEmbedding:
    vector: np.ndarray  # unit L2 norm

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if not np.all(np.isfinite(self.vector)):
            raise EmbeddingFormatError("non-finite embedding values")
        norm = np.linalg.norm(self.vector)
        if abs(norm - 1.0) > 1e-6:
            raise EmbeddingFormatError(f"embedding norm {norm} is not 1")

    @property
    def dim(self) -> int:
        return self.vector.size


def init_params(store: nc.ParamStore, n_mels: int, d_spk: int,
                rng: np.random.Generator) -> None:
    store.create("spk.w", nc.glorot(rng, 2 * n_mels, d_spk))
    store.create("spk.b", np.zeros(d_spk))


def _pool_stats(mel: MelSpectrogram) -> np.ndarray:
    # order-invariant pooling: per-bin mean and std over time
    mean = mel.values.mean(axis=0)
    std = mel.values.std(axis=0)
    return np.concatenate([mean, std])


def embed_tensor(store: nc.ParamStore, mel: MelSpectrogram) -> nc.Tensor:
    """Differentiable embedding as a graph tensor (training path)."""
    stats = nc.Tensor(_pool_stats(mel).astype(store.dtype))
    raw = stats.reshape(1, -1) @ store["spk.w"].tensor + store["spk.b"].tensor
    return nc.l2_normalize(raw.reshape(-1))


def embed_baseline(store: nc.ParamStore, mel: MelSpectrogram) -> SpeakerEmbedding:
    """Stats pooling -> learned linear map -> unit normalization."""
    with nc.no_grad():
        vec = embed_tensor(store, mel).data
    return SpeakerEmbedding(vec.astype(np.float64))


def save_embedding(path, emb: SpeakerEmbedding) -> None:
    with open(path, "wb") as f:
        f.write(SPKEMB_MAGIC)
        f.write(struct.pack("<I", emb.dim))
        f.write(emb.vector.astype("<f4").tobytes())


def load_external_embedding(path) -> SpeakerEmbedding:
    """Read a stored vector and renormalize it."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise EmbeddingFormatError(f"cannot read {path}: {exc}") from exc
    if blob[:8] != SPKEMB_MAGIC or len(blob) < 12:
        raise EmbeddingFormatError(f"{path}: not a speaker embedding file")
    (dim,) = struct.unpack_from("<I", blob, 8)
    if len(blob) != 12 + 4 * dim:
        raise EmbeddingFormatError(f"{path}: SPKEMB with {dim} values must be "
                                   f"{12 + 4 * dim} bytes, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", offset=12).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise EmbeddingFormatError(f"{path}: non-finite values")
    norm = np.linalg.norm(values)
    if norm == 0.0:
        raise EmbeddingFormatError(f"{path}: zero vector")
    return SpeakerEmbedding(values / norm)


def sim_o(a: SpeakerEmbedding, b: SpeakerEmbedding) -> float:
    """Cosine similarity; inputs are already unit norm."""
    if a.dim != b.dim:
        raise ValueError(f"embedding dims disagree: {a.dim} vs {b.dim}")
    return float(np.dot(a.vector, b.vector))
