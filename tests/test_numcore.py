import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftts import numcore as nc


def t(x, grad=True):
    return nc.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# -- matmul ---------------------------------------------------------------

def test_matmul_identity():
    b = np.arange(12.0).reshape(3, 4)
    out = nc.matmul(t(np.eye(3)), t(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_hand_sum():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[1.0], [1.0]])
    np.testing.assert_array_equal(nc.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(nc.ShapeError):
        nc.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))


def test_matmul_gradient_finite_difference():
    rng = np.random.default_rng(0)
    a = t(rng.standard_normal((4, 5)))
    b = t(rng.standard_normal((5, 2)))
    err = nc.grad_check(lambda: nc.matmul(a, b).sum(), [a, b], epsilon=1e-5)
    assert err < 1e-6


# -- softmax ----------------------------------------------------------------

def test_softmax_equal_values():
    out = nc.softmax_rows(t([[2.0, 2.0, 2.0, 2.0]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.25, 0.25, 0.25]], atol=1e-12)


def test_softmax_closed_form():
    out = nc.softmax_rows(t([[0.0, np.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_shift_invariance():
    big = nc.softmax_rows(t([[1000.0, 1000.5]]))
    small = nc.softmax_rows(t([[0.0, 0.5]]))
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, small.data, rtol=1e-12)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(m, n, seed):
    rng = np.random.default_rng(seed)
    out = nc.softmax_rows(t(rng.standard_normal((m, n))))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(m), atol=1e-6)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_additive_shift_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    shift = rng.standard_normal((3, 1))
    a = nc.softmax_rows(t(x)).data
    b = nc.softmax_rows(t(x + shift)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


# -- layer norm / conv / nonlinearity ----------------------------------------

def test_layer_norm_constant_row():
    gain = t(np.ones(4))
    bias = t(np.zeros(4))
    out = nc.layer_norm(t([[3.0, 3.0, 3.0, 3.0]]), gain, bias)
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-9)


def layer_norm_reference(x, gain, bias, eps=1e-5):
    # the formula layer_norm must reproduce: the row mean and the variance
    # are products with a C x 1 column of 1/C
    avg = np.full((x.shape[-1], 1), 1.0 / x.shape[-1], dtype=x.dtype)
    d = x - x @ avg
    xhat = d * (1.0 / np.sqrt((d * d) @ avg + eps))
    return (xhat * gain + bias).astype(x.dtype, copy=False)


LN_SHAPE = st.lists(st.integers(1, 40), min_size=2, max_size=3)
LN_SCALE, LN_OFFSET = st.floats(1e-3, 1e3), st.floats(-100.0, 100.0)
SEED = st.integers(0, 2**31 - 1)


def layer_norm_case(shape, dtype, scale, offset, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(shape) * scale + offset).astype(dtype)
    gain, bias = rng.standard_normal((2, shape[-1])).astype(dtype)
    with nc.no_grad():
        got = nc.layer_norm(nc.Tensor(x), nc.Tensor(gain), nc.Tensor(bias)).data
    return x, gain, bias, got


@given(LN_SHAPE, st.sampled_from([np.float32, np.float64]), LN_SCALE, LN_OFFSET, SEED)
@settings(max_examples=200, deadline=None)
def test_layer_norm_bit_identical_to_mean_var_formula(shape, dtype, scale, offset, seed):
    x, gain, bias, got = layer_norm_case(shape, dtype, scale, offset, seed)
    want = layer_norm_reference(x, gain, bias)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(LN_SHAPE, LN_SCALE, LN_OFFSET, SEED)
@settings(max_examples=200, deadline=None)
def test_layer_norm_float64_within_1e9_of_np_mean_and_var(shape, scale, offset, seed):
    # the products sum in another order than np.mean and np.var; a mean of
    # 100 over a spread of 1e-3 loses about 5 digits to cancellation in
    # both, and the worst relative L2 seen over 3000 such cases was 7.4e-12
    x, gain, bias, got = layer_norm_case(shape, np.float64, scale, offset, seed)
    xhat = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    want = xhat * gain + bias
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_conv1d_identity():
    x = t(np.random.default_rng(1).standard_normal((5, 3)))
    w = t(np.eye(3))
    out = nc.conv1d(x, w, kernel=1)
    np.testing.assert_array_equal(out.data, x.data)


def conv1d_reference(x, w, b, kernel):
    # im2col: zero-pad the rows, lay each tap's window side by side, one matmul
    half, rows = kernel // 2, x.shape[-2]
    padded = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(half, half), (0, 0)])
    cols = np.concatenate([padded[..., k:k + rows, :] for k in range(kernel)], axis=-1)
    return cols @ w + b


def conv1d_case(shape, kernel, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((kernel * shape[-1], 5)).astype(dtype)
    b = rng.standard_normal(5).astype(dtype)
    return x, w, b


@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "3d"])
def test_conv1d_within_1e12_of_im2col(kernel, rows, batch):
    # float64; rows 1 and 2 leave taps that reach no row at kernel 5
    x, w, b = conv1d_case(batch + (rows, 4), kernel, np.float64)
    with nc.no_grad():
        got = nc.conv1d(nc.Tensor(x), nc.Tensor(w), nc.Tensor(b), kernel=kernel).data
    want = conv1d_reference(x, w, b, kernel)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1d_batch_slice_bit_identical_to_unbatched(kernel, rows, dtype):
    x, w, b = (nc.Tensor(a) for a in conv1d_case((3, rows, 4), kernel, dtype))
    out = nc.conv1d(x, w, b, kernel=kernel).data
    for i in range(x.shape[0]):
        alone = nc.conv1d(nc.Tensor(x.data[i]), w, b, kernel=kernel).data
        assert out[i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("rows", [2, 7])
def test_conv1d_batched_kernel_5_gradients_vs_finite_differences(rows):
    x, w, b = (t(a) for a in conv1d_case((2, rows, 3), 5, np.float64, seed=3))
    weight = nc.Tensor(np.random.default_rng(4).standard_normal((2, rows, 5)))
    err = nc.grad_check(lambda: (nc.conv1d(x, w, b, kernel=5).tanh() * weight).sum(), [x, w, b])
    assert err < 1e-6


def test_ops_gradients_vs_finite_differences():
    rng = np.random.default_rng(7)
    x = t(rng.standard_normal((4, 6)))
    gain = t(rng.standard_normal(6))
    bias = t(rng.standard_normal(6))
    err = nc.grad_check(lambda: nc.layer_norm(x, gain, bias).sum(), [x, gain, bias])
    assert err < 1e-4

    xc = t(rng.standard_normal((7, 3)))
    w = t(rng.standard_normal((9, 2)))
    b = t(rng.standard_normal(2))
    err = nc.grad_check(lambda: nc.conv1d(xc, w, b, kernel=3).tanh().sum(), [xc, w, b])
    assert err < 1e-4

    xt = t(rng.standard_normal((3, 5)))
    err = nc.grad_check(lambda: nc.tanh(xt).sum(), [xt])
    assert err < 1e-4


def test_softmax_gradient():
    rng = np.random.default_rng(3)
    x = t(rng.standard_normal((4, 5)))
    c = nc.Tensor(rng.standard_normal((4, 5)))
    err = nc.grad_check(lambda: (nc.softmax_rows(x) * c).sum(), [x], epsilon=1e-5)
    assert err < 1e-6


# -- grad_check behaviour -----------------------------------------------------

def test_grad_check_linear_map_is_exact():
    rng = np.random.default_rng(2)
    a = t(rng.standard_normal((3, 3)))
    w = nc.Tensor(rng.standard_normal((3, 3)))
    err = nc.grad_check(lambda: nc.matmul(a, w).sum(), [a], epsilon=1e-4)
    assert err < 1e-9


def test_grad_check_epsilon_range():
    a = t(np.ones((2, 2)))
    with pytest.raises(ValueError):
        nc.grad_check(lambda: a.sum(), [a], epsilon=1e-2)


def test_grad_check_refuses_a_constant_by_position_before_evaluating():
    x = t([[0.3, -0.7]])
    c = t([[2.0, 0.5]], grad=False)

    def f():
        raise AssertionError("f was evaluated")

    with pytest.raises(ValueError, match=r"^grad_check tensor 1 does not require a gradient$"):
        nc.grad_check(f, [x, c])


# -- structural ops ---------------------------------------------------------

def test_repeat_rows_forward_and_grad():
    x = t([[0.0], [1.0]])
    out = nc.repeat_rows(x, np.array([2, 1]))
    np.testing.assert_array_equal(out.data, [[0.0], [0.0], [1.0]])
    err = nc.grad_check(lambda: (nc.repeat_rows(x, np.array([2, 1])) * nc.Tensor([[1.0], [2.0], [3.0]])).sum(), [x])
    assert err < 1e-8


def test_avg_pool_rows_odd_even():
    x = t(np.arange(10.0).reshape(5, 2))
    out = nc.avg_pool_rows(x)
    assert out.shape == (3, 2)
    np.testing.assert_allclose(out.data[-1], x.data[-1])
    err = nc.grad_check(lambda: (nc.avg_pool_rows(x).tanh()).sum(), [x])
    assert err < 1e-6


def test_concat_and_slice_grads():
    rng = np.random.default_rng(5)
    a = t(rng.standard_normal((3, 2)))
    b = t(rng.standard_normal((3, 4)))
    err = nc.grad_check(lambda: nc.concat_cols(a, b).tanh().sum(), [a, b])
    assert err < 1e-6
    err = nc.grad_check(lambda: nc.slice_rows(a, 1, 3).tanh().sum(), [a])
    assert err < 1e-6


# -- batch axis ------------------------------------------------------------------

BATCHED_OPS = {
    "conv1d": lambda x, p: nc.conv1d(x, p["w"], p["b"], kernel=3),
    "layer_norm": lambda x, p: nc.layer_norm(x, p["gain"], p["bias"]),
    "avg_pool_rows": lambda x, p: nc.avg_pool_rows(x),
    "repeat_rows": lambda x, p: nc.repeat_rows(x, np.arange(x.shape[-2]) % 3),
    "slice_rows": lambda x, p: nc.slice_rows(x, 1, x.shape[-2] - 1),
}


def batch_case(rows, dtype, batch=3, cols=4, seed=0):
    rng = np.random.default_rng(seed)

    def make(*shape):
        return nc.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    x = make(batch, rows, cols)
    params = {"w": make(3 * cols, 5), "b": make(5), "gain": make(cols), "bias": make(cols)}
    return x, params


@pytest.mark.parametrize("op", sorted(BATCHED_OPS))
@pytest.mark.parametrize("rows", [5, 6])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_op_equals_per_slice_2d(op, rows, dtype):
    x, params = batch_case(rows, dtype)
    f = BATCHED_OPS[op]
    out = f(x, params)
    assert out.shape[0] == x.shape[0]
    for i in range(x.shape[0]):
        assert np.array_equal(out.data[i], f(nc.Tensor(x.data[i]), params).data)


@pytest.mark.parametrize("op", sorted(BATCHED_OPS))
@pytest.mark.parametrize("rows", [5, 6])
def test_batched_op_gradients_vs_finite_differences(op, rows):
    x, params = batch_case(rows, np.float64, batch=2, cols=3)
    f = BATCHED_OPS[op]
    weight = nc.Tensor(np.random.default_rng(1).standard_normal(f(x, params).shape))
    err = nc.grad_check(lambda: (f(x, params).tanh() * weight).sum(), [x, *params.values()])
    assert err < 1e-6


def test_batched_ops_reject_other_ranks():
    flat = t(np.zeros(4))
    deep = t(np.zeros((2, 2, 4, 3)))
    with pytest.raises(nc.ShapeError):
        nc.avg_pool_rows(flat)
    with pytest.raises(nc.ShapeError):
        nc.slice_rows(deep, 0, 1)
    with pytest.raises(nc.ShapeError):
        nc.conv1d(deep, t(np.zeros((9, 2))))
    with pytest.raises(nc.ShapeError):
        nc.concat_cols(t(np.zeros((2, 4, 3))), t(np.zeros((3, 4, 3))))


def test_embedding_grad():
    rng = np.random.default_rng(6)
    table = t(rng.standard_normal((5, 3)))
    ids = np.array([0, 2, 2, 4])
    err = nc.grad_check(lambda: nc.embedding(table, ids).tanh().sum(), [table])
    assert err < 1e-6


def test_embedding_rejects_out_of_range():
    table = t(np.zeros((3, 2)))
    with pytest.raises(nc.ShapeError):
        nc.embedding(table, np.array([3]))


def test_l2_normalize():
    v = t([3.0, 4.0])
    np.testing.assert_allclose(nc.l2_normalize(v).data, [0.6, 0.8], atol=1e-12)
    err = nc.grad_check(lambda: (nc.l2_normalize(v) * nc.Tensor([1.0, -2.0])).sum(), [v])
    assert err < 1e-8
    with pytest.raises(nc.ShapeError):
        nc.l2_normalize(t([0.0, 0.0]))


# -- invariants ---------------------------------------------------------------

def test_non_finite_is_an_error():
    with pytest.raises(nc.NumericError):
        nc.Tensor(np.array([1.0, np.inf]))
    with pytest.raises(nc.NumericError), np.errstate(over="ignore"):
        nc.exp(t([[1000.0]]))  # exp 1000 -> inf


@pytest.mark.parametrize("op", [nc.add, nc.mul, lambda a, b: nc.tanh(a)],
                         ids=["add", "mul", "tanh"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ops_of_0d_operands_hold_an_array(op, dtype):
    a, b = nc.Tensor(np.array(0.5, dtype=dtype)), nc.Tensor(np.array(2.0, dtype=dtype))
    out = op(a, b)
    want = op(nc.Tensor(np.array([0.5], dtype=dtype)), nc.Tensor(np.array([2.0], dtype=dtype)))
    assert type(out.data) is np.ndarray and out.shape == ()
    assert out.data.dtype == dtype and out.data.tobytes() == want.data.tobytes()
    out.data[...] = 0  # a numpy scalar would refuse item assignment
    assert out.item() == 0


@pytest.mark.parametrize("op, name", [(nc.tanh, "tanh"), (nc.exp, "exp"), (nc.relu, "relu"),
                                      (nc.softmax_rows, "softmax_rows")])
def test_saturating_ops_refuse_a_non_finite_input(op, name):
    # node outputs are not checked, so these ops check the input they could
    # otherwise map to a finite output: tanh(-inf) = -1, exp(-inf) = relu(-inf) = 0,
    # and a -inf softmax entry gets weight 0
    with np.errstate(over="ignore"):
        x = nc.Tensor(np.array([[np.finfo(np.float32).max, 1.0]], dtype=np.float32)) * -10.0
    assert np.isneginf(x.data[0, 0])
    with pytest.raises(nc.NumericError, match=rf"^{name}: non-finite input; input shapes \(1, 2\) \[non-finite\]$"):
        op(x)


def test_layer_norm_refuses_a_row_whose_variance_overflows():
    # float32: the centred values square past the largest float, so the
    # variance is inf and the row would normalize to exactly the bias
    x = nc.Tensor(np.array([[1e20, -1e20, 3e19, 0.0]], dtype=np.float32))
    gain, bias = (nc.Tensor(np.full(4, v, dtype=np.float32)) for v in (1.0, 0.5))
    with pytest.raises(nc.NumericError, match=r"^layer_norm: non-finite row variance; "
                                              r"input shapes \(1, 4\), \(4,\), \(4,\)$"), \
            np.errstate(over="ignore"):
        nc.layer_norm(x, gain, bias)


def test_replay_names_the_first_op_with_a_non_finite_output():
    w = nc.Tensor(np.ones((3, 2)), requires_grad=True)
    w.data[1, 0] = np.nan
    x = nc.Tensor(np.ones((4, 3)))
    forward = lambda: nc.require_finite(nc.tanh(x @ w) * 2.0, "result")
    with pytest.raises(nc.NumericError, match=r"^tanh: non-finite input"):
        forward()
    with pytest.raises(nc.NumericError,
                       match=r"^matmul: non-finite output; input shapes \(4, 3\), \(3, 2\) \[non-finite\]$"):
        nc.run_checked(forward)
    assert nc.run_checked(lambda: nc.require_finite(x * 2.0, "result")).data.sum() == 24.0


def test_ops_deterministic():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 6))
    a = nc.softmax_rows(nc.Tensor(x)).data
    b = nc.softmax_rows(nc.Tensor(x)).data
    assert np.array_equal(a, b)


def test_no_grad_blocks_tape():
    x = t(np.ones((2, 2)))
    with nc.no_grad():
        y = nc.tanh(x).sum()
    assert y._inputs == () and not y.requires_grad


def test_backward_frees_the_graph_as_it_walks():
    x = t(np.arange(6.0).reshape(2, 3) / 6.0)
    w = t(np.full((3, 4), 0.5))
    h = nc.tanh(x @ w)
    activation = weakref.ref(h.data)
    loss = (h * 2.0).sum()
    del h
    loss.backward()
    assert activation() is None
    assert loss.grad is None and loss._inputs == ()
    # leaves keep their gradients
    dz = 2.0 * (1.0 - np.tanh(x.data @ w.data) ** 2)
    np.testing.assert_allclose(x.grad, dz @ w.data.T, rtol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.T @ dz, rtol=1e-12)


def test_constants_get_no_gradient(monkeypatch):
    wrapped = []

    def recording_wrap(x, like, real=nc._wrap):
        wrapped.append(real(x, like))
        return wrapped[-1]

    monkeypatch.setattr(nc, "_wrap", recording_wrap)
    x = t([[0.3, -1.2], [0.8, 0.1]])
    c = t([[1.5, -0.5], [2.0, 0.25]], grad=False)
    ((x * c).tanh() * 0.5).sum().backward()
    scalar = wrapped[-1]
    assert scalar.data == 0.5 and not scalar.requires_grad
    assert c.grad is None and scalar.grad is None
    np.testing.assert_allclose(x.grad, 0.5 * c.data * (1.0 - np.tanh(x.data * c.data) ** 2),
                               rtol=1e-12)


def test_mul_records_only_the_operand_that_needs_a_gradient():
    c = t([[1.5, -0.5, 3.0], [2.0, 0.25, -1.0]], grad=False)
    p = t([[0.4, -2.0, 0.7]])
    y = nc.mul(c, p)
    assert [inp for inp, _ in y._inputs] == [p]
    y.sum().backward()
    # d/dp sum(c * p), with p broadcast over c's rows, is c's column sums
    np.testing.assert_array_equal(p.grad, c.data.sum(axis=0, keepdims=True))
    assert c.grad is None


def test_backward_through_a_subgraph_used_twice():
    x = t([[0.3, -1.2], [0.8, 0.1]])
    w = t([[0.5, -0.4], [1.5, 0.2]])
    h = nc.tanh(x @ w)
    loss = (h * h).sum() + (h * 3.0).sum()
    loss.backward()
    th = np.tanh(x.data @ w.data)
    dz = (2.0 * th + 3.0) * (1.0 - th * th)
    np.testing.assert_allclose(x.grad, dz @ w.data.T, rtol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.T @ dz, rtol=1e-12)
    # released only after all three of its uses passed their gradients on
    assert h.grad is None and h._inputs == ()


def test_adam_moves_parameters_toward_minimum():
    store = nc.ParamStore(dtype=np.float64)
    store.create("w", np.array([5.0]))
    p = store["w"]
    opt = nc.Adam(store, lr=0.1)
    for _ in range(200):
        store.zero_grads()
        loss = (p.tensor * p.tensor).sum()
        loss.backward()
        opt.step()
    assert abs(p.value[0]) < 0.1
