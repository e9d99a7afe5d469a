"""Speaker embeddings: a stats-pooling baseline embedder and the SIM-O
cosine score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .audio import MelSpectrogram


class EmbeddingFormatError(ValueError):
    """A degenerate embedding vector: non-finite or not of unit norm."""


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
                rng: np.random.Generator | None) -> None:
    glorot, _ = nc.initializers(rng)
    store.create("spk.w", glorot(2 * n_mels, d_spk))
    store.create("spk.b", np.zeros(d_spk))


def _pool_stats(mel: MelSpectrogram) -> np.ndarray:
    # order-invariant pooling: per-bin mean and std over time
    mean = mel.values.mean(axis=0)
    std = mel.values.std(axis=0)
    return np.concatenate([mean, std])


def embed_tensor(store: nc.ParamStore, mel: MelSpectrogram) -> nc.Tensor:
    """Differentiable embedding as a graph tensor (training path)."""
    stats = nc.Tensor(_pool_stats(mel).astype(store.dtype))
    raw = nc.linear(stats.reshape(1, -1), store["spk.w"].tensor, store["spk.b"].tensor)
    return nc.l2_normalize(raw.reshape(-1))


def embed_baseline(store: nc.ParamStore, mel: MelSpectrogram) -> SpeakerEmbedding:
    """Stats pooling -> learned linear map -> unit normalization."""
    with nc.no_grad():
        vec = nc.run_checked(lambda: nc.require_finite(embed_tensor(store, mel),
                                                       "speaker embedding")).data
    return SpeakerEmbedding(vec.astype(np.float64))


def sim_o(a: SpeakerEmbedding, b: SpeakerEmbedding) -> float:
    """Cosine similarity; inputs are already unit norm."""
    if a.dim != b.dim:
        raise ValueError(f"embedding dims disagree: {a.dim} vs {b.dim}")
    return float(np.dot(a.vector, b.vector))
