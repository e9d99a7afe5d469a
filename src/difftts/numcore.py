"""Minimal differentiable numeric core: reverse-mode autodiff over numpy arrays.

A Tensor wraps a float ndarray together with its tape entry: one
``(input, gradient function)`` pair per op input that requires a gradient,
where the function maps the output's gradient to that input's.  Calling
``backward()`` on a scalar result walks the recorded graph in reverse
topological order and accumulates gradients into every tensor that was
created with ``requires_grad=True``.  Constants (tensors that do not require
a gradient) are left off the tape, so they get no gradient and cost no
gradient work; ``grad_check`` refuses them.  The walk uses up the graph: each
op node lets go of its gradient, inputs and saved arrays once it has passed
its gradient on, so no tensor of a graph may be reused in a later graph;
only leaves (parameters and inputs) carry over.

Only what the synthesis stack needs is implemented: 2-D matmul, elementwise
arithmetic with scalar/row broadcasting, a handful of nonlinearities and
reductions.  This is deliberately not a general array library.

The row ops (``slice_rows``, ``repeat_rows``, ``avg_pool_rows``) also take
a leading batch axis (B x T x C), so B inputs of one length can share a
pass; rows are axis -2.  Each batch slice gets exactly the arithmetic the
2-D op gives it.

Finiteness is checked where values enter the tape (leaves built from outside
data) and, by callers through ``require_finite``, where results leave it.
Node outputs are not checked, except by ``exp``; ``tanh``, ``exp``,
``relu`` and ``softmax_rows`` check their input, which they could
map to a finite output.  ``run_checked`` replays a forward that failed a
check with every op's output checked, to name the op at fault.  The replay
skips the ops that only move values (``_MOVES``): a non-finite parameter
reshaped or sliced on its way into a product is reported by that product.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Sequence

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)

# When False, ops do not record tape nodes (inference / sampling).
_grad_enabled = True

# When True, every op checks its output (``run_checked``'s replay).
_check_ops = False

# Ops that copy or rearrange values without arithmetic; the replay does not
# check them, since they cannot make a non-finite value.
_MOVES = frozenset({"reshape", "transpose", "concat_cols", "slice_rows", "slice_cols",
                    "repeat_rows"})


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def _checking_ops():
    """Check every op's output for finiteness inside the block."""
    global _check_ops
    prev, _check_ops = _check_ops, True
    try:
        yield
    finally:
        _check_ops = prev


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


class NumericError(ArithmeticError):
    """NaN or Inf appeared in a tensor.

    After ``run_checked``'s replay the message names the first op that made
    a non-finite value and its input shapes, marking non-finite inputs.
    """


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError("non-finite values in tensor")
    return arr


def _check_op(op: str, what: str, data: np.ndarray, inputs: Sequence["Tensor"]) -> None:
    if not np.isfinite(data).all():
        shapes = ", ".join(f"{p.shape}" + ("" if np.isfinite(p.data).all() else " [non-finite]")
                           for p in inputs)
        raise NumericError(f"{op}: non-finite {what}; input shapes {shapes}")


def require_finite(t: "Tensor", what: str) -> "Tensor":
    """Return ``t``; raise NumericError naming ``what`` if it holds NaN or Inf."""
    if not np.isfinite(t.data).all():
        raise NumericError(f"non-finite {what}")
    return t


def run_checked(forward: Callable[[], object]):
    """Return ``forward()``; if it raises NumericError, rerun the
    deterministic ``forward`` with every op's output checked and raise the
    error naming the first op at fault (or the first error)."""
    try:
        return forward()
    except NumericError as first:
        error = first
    with no_grad(), _checking_ops():
        forward()
    raise error


class Tensor:
    """Float array plus autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_inputs")

    def __init__(self, data, requires_grad: bool = False):
        # a leaf wraps outside data (lists, numbers, integer arrays), cast to
        # float64 unless already float; op outputs are float arrays already
        data = np.asarray(data)
        if data.dtype not in _FLOAT_DTYPES:
            data = data.astype(np.float64)
        self._init(_check_finite(data), requires_grad)

    def _init(self, data: np.ndarray, requires_grad: bool) -> None:
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        # (input, vjp) pairs: vjp maps this tensor's gradient to the input's
        self._inputs: tuple[tuple[Tensor, Callable[[np.ndarray], np.ndarray]], ...] = ()

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph plumbing ------------------------------------------------
    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar result; each op node drops its gradient
        and inputs once it has passed its gradient on."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p, _ in node._inputs:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if not node._inputs:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                for p, vjp in node._inputs:
                    p._accumulate(vjp(node.grad))
            node.grad = None
            node._inputs = ()

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self), -1.0))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division not supported; divide by scalars")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    def tanh(self):
        return tanh(self)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _node(op: str, data: np.ndarray, inputs: tuple[Tensor, ...],
          vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] | bool) -> Tensor:
    """The output of ``op`` over ``inputs``, checked only in a replay.

    ``vjps`` holds one gradient function per input.  Ops pass
    ``_grad_enabled and (...)``, so under ``no_grad`` it is False and no
    function is built; the output keeps the ``(input, vjp)`` pairs whose
    input requires a gradient.
    """
    if not isinstance(data, np.ndarray):  # numpy returns scalars for 0-d operands
        data = np.asarray(data)
    if _check_ops and op not in _MOVES:
        _check_op(op, "output", data, inputs)
    out = Tensor.__new__(Tensor)
    out._init(data, False)
    if vjps:
        out._inputs = tuple(pair for pair in zip(inputs, vjps) if pair[0].requires_grad)
        out.requires_grad = bool(out._inputs)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _scatter(like: np.ndarray, index, g: np.ndarray, repeats: bool = False) -> np.ndarray:
    """Zeros shaped like ``like`` with ``g`` placed at ``index``; summed where
    an index ``repeats``."""
    full = np.zeros_like(like)
    if repeats:
        np.add.at(full, index, g)
    else:
        full[index] = g
    return full


# -- primitive ops -----------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}") from exc
    return _node("add", data, (a, b), _grad_enabled and (lambda g: _unbroadcast(g, a.shape),
                                                         lambda g: _unbroadcast(g, b.shape)))


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}") from exc
    return _node("mul", data, (a, b),
                 _grad_enabled and (lambda g: _unbroadcast(g * b.data, a.shape),
                                    lambda g: _unbroadcast(g * a.data, b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-D tensors")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    return _node("matmul", a.data @ b.data, (a, b),
                 _grad_enabled and (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose expects a 2-D tensor")
    return _node("transpose", a.data.T.copy(), (a,), _grad_enabled and (lambda g: g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    return _node("reshape", a.data.reshape(shape), (a,),
                 _grad_enabled and (lambda g: g.reshape(a.shape),))


def exp(a: Tensor) -> Tensor:
    _check_op("exp", "input", a.data, (a,))  # exp(-inf) is 0
    data = np.exp(a.data)
    _check_op("exp", "output", data, (a,))
    return _node("exp", data, (a,), _grad_enabled and (lambda g: g * data,))


def tanh(a: Tensor) -> Tensor:
    _check_op("tanh", "input", a.data, (a,))  # tanh(+-inf) is +-1
    data = np.tanh(a.data)
    return _node("tanh", data, (a,), _grad_enabled and (lambda g: g * (1.0 - data * data),))


def relu(a: Tensor) -> Tensor:
    _check_op("relu", "input", a.data, (a,))  # relu(-inf) is 0
    return _node("relu", np.maximum(a.data, 0.0), (a,),
                 _grad_enabled and (lambda g: g * (a.data > 0.0),))


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)
    return _node("tsum", data, (a,), _grad_enabled and (
        lambda g: np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean(), dtype=a.data.dtype)
    return _node("tmean", data, (a,), _grad_enabled and (
        lambda g: np.broadcast_to(g / n, a.shape).astype(a.data.dtype, copy=False),))


def _rows_operand(a: Tensor, op: str) -> None:
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"{op} expects a 2-D or 3-D (batch x rows x cols) tensor")


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Side-by-side columns of two 2-D tensors with the same rows."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"cannot column-concat shapes {a.shape} and {b.shape}")
    na = a.shape[1]
    data = np.concatenate([a.data, b.data], axis=1)
    return _node("concat_cols", data, (a, b),
                 _grad_enabled and (lambda g: g[:, :na], lambda g: g[:, na:]))


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    _rows_operand(a, "slice_rows")
    rows = (Ellipsis, slice(start, stop), slice(None))
    return _node("slice_rows", a.data[rows].copy(), (a,),
                 _grad_enabled and (lambda g: _scatter(a.data, rows, g),))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("slice_cols expects a 2-D tensor")
    cols = (slice(None), slice(start, stop))
    return _node("slice_cols", a.data[cols].copy(), (a,),
                 _grad_enabled and (lambda g: _scatter(a.data, cols, g),))


def repeat_rows(a: Tensor, counts: np.ndarray) -> Tensor:
    """Repeat row p of ``a`` counts[p] times; the length-regulator primitive."""
    _rows_operand(a, "repeat_rows")
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (a.shape[-2],):
        raise ShapeError("one count per row required")
    if np.any(counts < 0) or counts.sum() == 0:
        raise ShapeError("counts must be nonnegative with positive total")
    rows = (Ellipsis, np.repeat(np.arange(a.shape[-2]), counts), slice(None))
    return _node("repeat_rows", a.data[rows], (a,),
                 _grad_enabled and (lambda g: _scatter(a.data, rows, g, repeats=True),))


def avg_pool_rows(a: Tensor) -> Tensor:
    """Average consecutive row pairs; odd tails are padded by edge repetition."""
    _rows_operand(a, "avg_pool_rows")
    t = a.shape[-2]
    padded = a.data if t % 2 == 0 else np.concatenate([a.data, a.data[..., -1:, :]], axis=-2)
    data = 0.5 * (padded[..., 0::2, :] + padded[..., 1::2, :])
    return _node("avg_pool_rows", data, (a,),
                 _grad_enabled and (lambda g: _unpool_rows(g, a.data),))


def _unpool_rows(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``avg_pool_rows``'s gradient: half of each pooled row's gradient to
    each row of its pair, both halves to an odd tail row."""
    t = like.shape[-2]
    acc = np.zeros_like(like)
    acc[..., 0::2, :] += 0.5 * g
    if t % 2 == 0:
        acc[..., 1::2, :] += 0.5 * g
    else:
        acc[..., 1::2, :] += 0.5 * g[..., : t // 2, :]
        acc[..., -1, :] += 0.5 * g[..., -1, :]
    return acc

# -- parameters and the optimizer ----------------------------------------
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

    def __init__(self, store: ParamStore, lr: float, t: int = 0,
                 moments: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] | None = None):
        """Zero moments at step 0, unless given a checkpoint's step count and ``(m, v)``."""
        self.store = store
        self.lr = lr
        self.t = t
        self.m, self.v = moments or ({name: np.zeros_like(p.value) for name, p in store.items()},
                                     {name: np.zeros_like(p.value) for name, p in store.items()})

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
# Layers operate on 2-D tensors laid out as positions x channels (phonemes
# or frames along axis 0); ``conv1d`` and ``layer_norm`` also take a leading
# batch axis.


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction."""
    if x.data.ndim != 2:
        raise ShapeError("softmax_rows expects a 2-D tensor")
    _check_op("softmax_rows", "input", x.data, (x,))  # a -inf entry gets weight 0
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)
    return _node("softmax_rows", out.astype(x.data.dtype, copy=False), (x,),
                 _grad_enabled and (lambda g: (g - (g * out).sum(axis=1, keepdims=True)) * out,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then affine rescale.

    ``x`` is rows x C or batch x rows x C; rows are normalized over axis -1.
    Each row's mean, and its variance as the mean of the squared centred
    row, is a matrix product with a C x 1 column of 1/C, and so are the
    row means of the backward pass; a batch gets one product per slice.  A row whose variance is not finite raises NumericError: a
    huge finite row squares to inf, and would otherwise normalize to exactly
    the bias.
    """
    if x.data.ndim not in (2, 3):
        raise ShapeError("layer_norm expects a 2-D or 3-D tensor")
    avg = np.full((x.shape[-1], 1), 1.0 / x.shape[-1], dtype=x.data.dtype)
    xhat = x.data - x.data @ avg
    var = (xhat * xhat) @ avg
    _check_op("layer_norm", "row variance", var, (x, gain, bias))
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    lead = tuple(range(x.data.ndim - 1))
    return _node("layer_norm", out.astype(x.data.dtype, copy=False), (x, gain, bias),
                 _grad_enabled and (
                     lambda g: _layer_norm_dx(g * gain.data, xhat, inv, avg),
                     lambda g: (g * xhat).sum(axis=lead).reshape(gain.shape),
                     lambda g: g.sum(axis=lead).reshape(bias.shape)))


def _layer_norm_dx(dxhat: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                   avg: np.ndarray) -> np.ndarray:
    """``layer_norm``'s input gradient from the normalized rows' gradient."""
    d = inv * (dxhat - dxhat @ avg - xhat * ((dxhat * xhat) @ avg))
    return d.astype(xhat.dtype, copy=False)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, kernel: int = 3) -> Tensor:
    """Same-padded 1-D convolution along rows, one matmul per tap.

    ``x`` is time x C_in, or batch x time x C_in with one product per batch
    slice; ``w`` is (kernel*C_in) x C_out with taps ordered
    [tap0 | tap1 | ...], each tap a C_in block.  Output row r sums tap k's
    block applied to input row r + k - kernel//2, where that row exists: each
    tap multiplies the input rows it reads and adds the product into the
    output rows it reaches, so nothing is padded and no im2col matrix is
    built.  The centre tap, which reaches every row, starts the sum; the
    other taps follow in order, then the bias.  The backward pass runs the
    same products transposed.
    """
    if x.data.ndim not in (2, 3) or w.data.ndim != 2:
        raise ShapeError("conv1d expects a 2-D or 3-D input and a 2-D weight")
    if kernel < 1 or kernel % 2 == 0:
        raise ShapeError("conv1d kernel must be odd and positive")
    t, cin = x.shape[-2:]
    if w.shape[0] != kernel * cin:
        raise ShapeError(f"weight rows {w.shape[0]} != kernel*C_in {kernel * cin}")
    taps = _conv_taps(t, kernel)
    blocks = [w.data[k * cin:(k + 1) * cin] for k in range(kernel)]
    out = _tap_sum(x.data, blocks, taps)
    if b is not None:
        out += b.data
    # zip pairs the bias's gradient function only with a bias
    return _node("conv1d", out, (x, w) if b is None else (x, w, b), _grad_enabled and (
        lambda g: _tap_sum(g, [m.T for m in blocks], [(k, src, dst) for k, dst, src in taps]),
        lambda g: _conv_dw(g, x.data, w.data, taps),
        lambda g: g.reshape(-1, g.shape[-1]).sum(axis=0).reshape(b.shape)))


def _tap_sum(a: np.ndarray, blocks: list[np.ndarray], taps) -> np.ndarray:
    """``conv1d``'s products: for each ``(tap, rows reached, rows read)``,
    the rows of ``a`` it reads times its block, added into the rows it
    reaches.  The first tap must reach every row.  With the blocks
    transposed and each tap's rows swapped, this is the input gradient."""
    out = a @ blocks[taps[0][0]]
    for k, dst, src in taps[1:]:
        out[..., dst, :] += a[..., src, :] @ blocks[k]
    return out


def _conv_dw(g: np.ndarray, x: np.ndarray, w: np.ndarray, taps) -> np.ndarray:
    """``conv1d``'s weight gradient, one tap block at a time over the batch's
    rows; a tap that reaches no row gets zeros."""
    cin = x.shape[-1]
    d = np.zeros_like(w)
    for k, dst, src in taps:
        d[k * cin:(k + 1) * cin] = (x[..., src, :].reshape(-1, cin).T
                                    @ g[..., dst, :].reshape(-1, g.shape[-1]))
    return d


@functools.lru_cache(maxsize=64)  # a sampler repeats each frame count at every step
def _conv_taps(t: int, kernel: int) -> tuple[tuple[int, slice, slice], ...]:
    """``(tap, output rows, input rows)`` of each tap that reaches one of
    ``t`` rows, the centre tap first: tap k maps input row r + k - kernel//2
    to output row r."""
    half = kernel // 2
    order = [half] + [k for k in range(kernel) if k != half and abs(k - half) < t]
    return tuple((k, slice(max(half - k, 0), t - max(k - half, 0)),
                  slice(max(k - half, 0), t - max(half - k, 0))) for k in order)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; gradient scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("embedding expects a 1-D id array")
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError("token id outside table range")
    return _node("embedding", table.data[ids], (table,),
                 _grad_enabled and (lambda g: _scatter(table.data, ids, g, repeats=True),))


def l2_normalize(x: Tensor) -> Tensor:
    """Scale a vector to unit L2 norm."""
    if x.data.ndim != 1:
        raise ShapeError("l2_normalize expects a 1-D tensor")
    norm = float(np.sqrt((x.data * x.data).sum()))
    if norm == 0.0:
        raise ShapeError("cannot normalize a zero vector")
    y = x.data / norm
    return _node("l2_normalize", y.astype(x.data.dtype, copy=False), (x,),
                 _grad_enabled and (lambda g: (g - y * (y * g).sum()) / norm,))


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


def initializers(rng: np.random.Generator | None):
    """``init_params``'s draws, ``(glorot, normal_init)`` with ``rng`` bound.

    With ``rng`` None they draw nothing: each returns a read-only zero-stride
    array of the shape it would have drawn, so that ``init_params`` run
    against a store that only records shapes allocates no parameters.
    """
    if rng is None:
        return (lambda *fans: np.broadcast_to(0.0, fans),
                lambda shape, std: np.broadcast_to(0.0, shape))
    return functools.partial(glorot, rng), functools.partial(normal_init, rng)

# -- gradient check -------------------------------------------------------
def grad_check(f: Callable[[], Tensor], tensors: Sequence[Tensor],
               epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` re-evaluates a scalar-valued forward pass that reads ``tensors``
    (params and/or inputs), each of which must require a gradient; each
    tensor is perturbed entry by entry.  The relative error is
    |analytic - fd| / max(1, |analytic|).
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            raise ValueError(f"grad_check tensor {i} does not require a gradient")
    for t in tensors:
        t.zero_grad()
    out = f()
    if out.data.size != 1:
        raise ValueError("grad_check target must be scalar-valued")
    out.backward()
    analytic = []
    for t in tensors:
        if t.grad is None:
            analytic.append(np.zeros_like(t.data))
        else:
            analytic.append(t.grad.astype(np.float64).copy())

    worst = 0.0
    with no_grad():
        for t, a in zip(tensors, analytic):
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                fp = float(f().data)
                flat[i] = orig - epsilon
                fm = float(f().data)
                flat[i] = orig
                fd = (fp - fm) / (2.0 * epsilon)
                if not np.isfinite(fd):
                    raise NumericError("non-finite finite-difference value")
                err = abs(a.reshape(-1)[i] - fd) / max(1.0, abs(a.reshape(-1)[i]))
                if err > worst:
                    worst = err
    return float(worst)
