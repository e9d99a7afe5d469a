"""Neural-net building blocks on top of the autodiff tape.

Layers operate on 2-D tensors laid out as positions x channels (phonemes or
frames along axis 0); ``conv1d`` and ``layer_norm`` also take a leading
batch axis.
"""

from __future__ import annotations

import numpy as np

from .tensor import NumericError, ShapeError, Tensor, _check_op, _node


class Parameter:
    """Trainable tensor, named by its key in a ``ParamStore``; gradient lives on the tensor."""

    def __init__(self, value: np.ndarray):
        self.tensor = Tensor(value, requires_grad=True)

    @property
    def value(self) -> np.ndarray:
        return self.tensor.data


class ParamStore:
    """Insertion-ordered registry of parameters, keyed by unique name."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, value: np.ndarray) -> None:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        self._params[name] = Parameter(np.asarray(value, dtype=self.dtype))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.tensor.zero_grad()


# Adam's moment decays and denominator floor; layer_norm's variance floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LN_EPS = 1e-5


class Adam:
    """Adam with bias correction; state is exposed for checkpointing."""

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.value) for name, p in store.items()}
        self.v = {name: np.zeros_like(p.value) for name, p in store.items()}

    def step(self) -> None:
        """One update; a non-finite gradient raises NumericError naming its
        parameter before any parameter or moment changes."""
        for name, p in self.store.items():
            g = p.tensor.grad
            if g is not None and not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name} "
                                   f"in Adam update {self.t + 1}")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.store.items():
            g = p.tensor.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.tensor.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


# -- layer ops ----------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction."""
    if x.data.ndim != 2:
        raise ShapeError("softmax_rows expects a 2-D tensor")
    _check_op("softmax_rows", "input", x.data, (x,))  # a -inf entry gets weight 0
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        x._accumulate((g - dot) * out)

    return _node(out.astype(x.data.dtype, copy=False), (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then affine rescale.

    ``x`` is rows x C or batch x rows x C; rows are normalized over axis -1.
    A row whose variance is not finite raises NumericError: a huge finite row
    squares to inf, and would otherwise normalize to exactly the bias.
    """
    if x.data.ndim not in (2, 3):
        raise ShapeError("layer_norm expects a 2-D or 3-D tensor")
    # np.mean and np.var's arithmetic, with the centred rows formed only once
    n = x.data.shape[-1]
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    _check_op("layer_norm", "row variance", var, (x, gain, bias))
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    lead = tuple(range(x.data.ndim - 1))

    def backward(g):
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        x._accumulate(dx.astype(x.data.dtype, copy=False))
        gain._accumulate((g * xhat).sum(axis=lead).reshape(gain.shape))
        bias._accumulate(g.sum(axis=lead).reshape(bias.shape))

    return _node(out.astype(x.data.dtype, copy=False), (x, gain, bias), backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, kernel: int = 3) -> Tensor:
    """Same-padded 1-D convolution along rows via an im2col matmul.

    ``x`` is time x C_in, or batch x time x C_in with one product per batch
    slice; ``w`` is (kernel*C_in) x C_out with taps ordered
    [tap0 | tap1 | ...], each tap a C_in block.
    """
    if x.data.ndim not in (2, 3) or w.data.ndim != 2:
        raise ShapeError("conv1d expects a 2-D or 3-D input and a 2-D weight")
    if kernel < 1 or kernel % 2 == 0:
        raise ShapeError("conv1d kernel must be odd and positive")
    t, cin = x.shape[-2:]
    if w.shape[0] != kernel * cin:
        raise ShapeError(f"weight rows {w.shape[0]} != kernel*C_in {kernel * cin}")
    half = kernel // 2
    padded = np.zeros(x.shape[:-2] + (t + 2 * half, cin), dtype=x.data.dtype)
    padded[..., half:half + t, :] = x.data
    cols = np.concatenate([padded[..., k:k + t, :] for k in range(kernel)], axis=-1)
    out = cols @ w.data
    if b is not None:
        out += b.data

    def backward(g):
        w._accumulate(cols.reshape(-1, kernel * cin).T @ g.reshape(-1, g.shape[-1]))
        if b is not None:
            b._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0).reshape(b.shape))
        dcols = g @ w.data.T
        dpad = np.zeros_like(padded)
        for k in range(kernel):
            dpad[..., k:k + t, :] += dcols[..., k * cin:(k + 1) * cin]
        x._accumulate(dpad[..., half:half + t, :])

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, parents, backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; gradient scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("embedding expects a 1-D id array")
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError("token id outside table range")
    data = table.data[ids]

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids, g)
        table._accumulate(acc)

    return _node(data, (table,), backward)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale a vector to unit L2 norm."""
    if x.data.ndim != 1:
        raise ShapeError("l2_normalize expects a 1-D tensor")
    norm = float(np.sqrt((x.data * x.data).sum()))
    if norm == 0.0:
        raise ShapeError("cannot normalize a zero vector")
    y = x.data / norm

    def backward(g):
        x._accumulate((g - y * (y * g).sum()) / norm)

    return _node(y.astype(x.data.dtype, copy=False), (x,), backward)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Single-head scaled dot-product attention."""
    scores = (q @ k.T) * (1.0 / np.sqrt(q.shape[1]))
    return softmax_rows(scores) @ v


def sinusoidal_embedding(t: float, dim: int, dtype) -> np.ndarray:
    """Classic sin/cos position features for a scalar diffusion time."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t * freqs * 1000.0
    emb = np.concatenate([np.sin(ang), np.cos(ang)])
    if dim % 2 == 1:
        emb = np.concatenate([emb, np.zeros(1)])
    return emb.astype(dtype).reshape(1, dim)


# -- initializers --------------------------------------------------------


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


def normal_init(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> np.ndarray:
    return std * rng.standard_normal(shape)
