"""Text encoder: embedding lookup plus conv/self-attention blocks.

Produces per-phoneme embeddings and a per-phoneme mel-mean prediction; the
mel means expand to frame rate through the length regulator to become the
aligned decoder condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .config import Config
from .textfront import PhonemeSequence


@dataclass
class TextEncoding:
    embeddings: nc.Tensor  # P x d_model
    mu: nc.Tensor          # P x n_mels


def init_params(store: nc.ParamStore, cfg: Config, vocab_size: int,
                rng: np.random.Generator | None) -> None:
    glorot, normal = nc.initializers(rng)
    d = cfg.model.d_model
    k = cfg.model.conv_kernel
    d_head = d // cfg.model.n_heads
    store.create("enc.emb", normal((vocab_size, d), std=0.1))
    for i in range(cfg.model.n_enc_blocks):
        b = f"enc.block{i}"
        store.create(f"{b}.ln1.gain", np.ones(d))
        store.create(f"{b}.ln1.bias", np.zeros(d))
        # head h owns columns h*d_head:(h+1)*d_head of the fused projections;
        # draws keep the per-head q, k, v order
        draws = [[glorot(d, d_head) for _ in "qkv"] for _ in range(cfg.model.n_heads)]
        for j, name in enumerate("qkv"):
            store.create(f"{b}.attn.{name}", np.concatenate([hd[j] for hd in draws], axis=1))
        store.create(f"{b}.attn.out", glorot(d, d))
        store.create(f"{b}.ln2.gain", np.ones(d))
        store.create(f"{b}.ln2.bias", np.zeros(d))
        store.create(f"{b}.ff1.w", glorot(k * d, d))
        store.create(f"{b}.ff1.b", np.zeros(d))
        store.create(f"{b}.ff2.w", glorot(k * d, d))
        store.create(f"{b}.ff2.b", np.zeros(d))
    store.create("enc.ln_out.gain", np.ones(d))
    store.create("enc.ln_out.bias", np.zeros(d))
    store.create("enc.mu.w", glorot(d, cfg.audio.n_mels))
    store.create("enc.mu.b", np.zeros(cfg.audio.n_mels))


def encode(store: nc.ParamStore, seq: PhonemeSequence, cfg: Config) -> TextEncoding:
    """Run the block stack over the token ids."""
    k = cfg.model.conv_kernel
    d = cfg.model.d_model
    d_head = d // cfg.model.n_heads
    x = nc.embedding(store["enc.emb"].tensor, seq.ids)
    for i in range(cfg.model.n_enc_blocks):
        b = f"enc.block{i}"
        h = nc.layer_norm(x, store[f"{b}.ln1.gain"].tensor, store[f"{b}.ln1.bias"].tensor)
        # one product per head with its column block of the fused q/k/v
        # matrices: a single product per matrix rounds the backward sums
        # differently and so changes every trained parameter
        proj = [store[f"{b}.attn.{name}"].tensor for name in "qkv"]
        a = None
        for lo in range(0, d, d_head):
            q, kk, v = (h @ nc.slice_cols(w, lo, lo + d_head) for w in proj)
            out = nc.scaled_dot_attention(q, kk, v)
            a = out if a is None else nc.concat_cols(a, out)
        x = x + a @ store[f"{b}.attn.out"].tensor
        h = nc.layer_norm(x, store[f"{b}.ln2.gain"].tensor, store[f"{b}.ln2.bias"].tensor)
        h = nc.conv1d(h, store[f"{b}.ff1.w"].tensor, store[f"{b}.ff1.b"].tensor, kernel=k)
        h = nc.tanh(h)
        h = nc.conv1d(h, store[f"{b}.ff2.w"].tensor, store[f"{b}.ff2.b"].tensor, kernel=k)
        x = x + h
    x = nc.layer_norm(x, store["enc.ln_out.gain"].tensor, store["enc.ln_out.bias"].tensor)
    mu = nc.linear(x, store["enc.mu.w"].tensor, store["enc.mu.b"].tensor)
    return TextEncoding(x, mu)


def expand_mu(enc: TextEncoding, durations: np.ndarray) -> nc.Tensor:
    """Repeat each phoneme's mel mean durations[p] times: frame-level mu.

    This is the aligned condition fed to the decoder; total frames equal the
    duration sum.
    """
    return nc.repeat_rows(enc.mu, durations)


def encoder_prior_loss(frame_mu: nc.Tensor, target: np.ndarray) -> nc.Tensor:
    """MSE between the expanded mel means and the target mel."""
    diff = frame_mu - nc.Tensor(np.asarray(target, dtype=frame_mu.data.dtype))
    return (diff * diff).mean()
