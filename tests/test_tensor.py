import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attndistill.tensor as T
from attndistill.errors import ContractError, NumericError, ShapeError
from attndistill.tensor import Tensor, grad_check, no_grad, precision, topo_order


def test_matmul_identity():
    a = Tensor(np.eye(2, dtype=np.float32))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_projector():
    p = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32))
    assert np.array_equal(T.matmul(p, b).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4)).astype(np.float32)
    b = rng.standard_normal((4, 2)).astype(np.float32)
    expected = np.zeros((3, 2), dtype=np.float64)
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += float(a[i, k]) * float(b[k, j])
    out = T.matmul(Tensor(a), Tensor(b)).data
    assert np.abs(out - expected).max() <= 1e-6


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 1))))


def test_conv2d_scalar_kernel_doubles():
    x = Tensor(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
    w = Tensor(np.array([[[[2.0]]]], dtype=np.float32))
    out = T.conv2d(x, w, stride=1, pad=0)
    assert np.array_equal(out.data, 2.0 * x.data)


def test_conv2d_impulse_prints_flipped_kernel():
    # cross-correlation of a centered delta imprints the kernel with
    # flipped indices (no kernel flip is applied by the op itself)
    x = np.zeros((1, 1, 5, 5), dtype=np.float32)
    x[0, 0, 2, 2] = 1.0
    k = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
    out = T.conv2d(Tensor(x), Tensor(k), stride=1, pad=1).data
    assert np.array_equal(out[0, 0, 1:4, 1:4], k[0, 0, ::-1, ::-1])


def _conv_six_loop(x, w, stride, pad):
    b, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (ww + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))).astype(np.float64)
    out = np.zeros((b, cout, ho, wo))
    for bi in range(b):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += xp[bi, ci, i * stride + di, j * stride + dj] * float(w[co, ci, di, dj])
                    out[bi, co, i, j] = acc
    return out


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
def test_conv2d_against_six_loop(stride, pad):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    out = T.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
    assert np.abs(out - _conv_six_loop(x, w, stride, pad)).max() <= 1e-5


def _conv_weight_grad(x, w, g, stride, pad):
    """dL/dw for upstream gradient g, one float32 backward pass."""
    wt = Tensor(w, requires_grad=True)
    T.tsum(T.mul(T.conv2d(Tensor(x), wt, stride=stride, pad=pad), Tensor(g))).backward()
    return wt.grad


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("batch", [1, 3])
def test_conv2d_weight_grad_against_float64_einsum(k, stride, pad, batch):
    rng = np.random.default_rng([k, stride, pad, batch])
    x = rng.standard_normal((batch, 6, 9, 9)).astype(np.float32)
    w = rng.standard_normal((5, 6, k, k)).astype(np.float32)
    ho = (9 + 2 * pad - k) // stride + 1
    g = rng.standard_normal((batch, 5, ho, ho)).astype(np.float32)
    dw = _conv_weight_grad(x, w, g, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))).astype(np.float64)
    ref = np.empty(w.shape)
    for di in range(k):
        for dj in range(k):
            patch = xp[:, :, di : di + stride * ho : stride, dj : dj + stride * ho : stride]
            ref[:, :, di, dj] = np.einsum("bohw,bihw->oi", g.astype(np.float64), patch)
    assert dw.dtype == np.float32
    assert np.abs(dw - ref).max() <= 1e-5 * np.abs(ref).max()


def test_conv2d_weight_grad_independent_of_batch_order():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 16, 8, 8)).astype(np.float32)
    w = rng.standard_normal((32, 16, 3, 3)).astype(np.float32)
    g = rng.standard_normal((7, 32, 4, 4)).astype(np.float32)
    forward = _conv_weight_grad(x, w, g, stride=2, pad=1)
    reversed_ = _conv_weight_grad(x[::-1].copy(), w, g[::-1].copy(), stride=2, pad=1)
    assert np.array_equal(forward, reversed_)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), pad=1)


def test_softmax_symmetry():
    out = T.softmax(Tensor(np.array([[0.0, 0.0]])), axis=1).data
    assert np.allclose(out, [[0.5, 0.5]])


def test_softmax_shift_stability():
    out = T.softmax(Tensor(np.array([[1000.0, 1000.0, 1000.0]])), axis=1).data
    assert np.all(np.isfinite(out))
    assert np.allclose(out, 1.0 / 3.0)


def test_softmax_against_extended_precision():
    mpmath.mp.dps = 50
    vals = [1.0, 2.0, 3.0]
    exps = [mpmath.e**v for v in vals]
    total = sum(exps)
    expected = np.array([float(e / total) for e in exps])
    out32 = T.softmax(Tensor(np.array([vals])), axis=1).data[0]
    assert np.abs(out32 - expected).max() <= 1e-6
    assert abs(out32.sum() - 1.0) <= 1e-6
    out64 = T.softmax(Tensor(np.array([vals]), dtype=np.float64), axis=1).data[0]
    assert np.abs(out64 - expected).max() <= 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        T.softmax(Tensor(np.array([[np.nan, 0.0]])), axis=1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
)
def test_softmax_rows_sum_to_one(row):
    out = T.softmax(Tensor(np.array([row], dtype=np.float32)), axis=1).data
    assert abs(out.sum() - 1.0) <= 1e-6
    assert (out >= 0).all()


def test_backward_linear_map():
    # loss = sum(W x) with x fixed: dW = x broadcast across rows
    x = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    w = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
    loss = T.tsum(T.matmul(w, Tensor(x.reshape(3, 1))))
    loss.backward()
    assert np.allclose(w.grad, np.tile(x, (4, 1)))


def test_backward_quadratic():
    x = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float32), requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.mul(x, x).backward()


def test_backward_accumulates_through_shared_node():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.add(x, 1.0)
    loss = T.tsum(T.add(y, y))
    loss.backward()
    assert np.allclose(x.grad, [2.0])


def test_topo_order_visits_each_node_once():
    x = Tensor(np.ones(2), requires_grad=True)
    y = T.add(x, 1.0)
    z = T.tsum(T.add(T.mul(y, y), y))
    order = topo_order(z)
    assert len({id(n) for n in order}) == len(order)


def test_grad_check_constant_gradient():
    with precision(np.float64):
        theta = Tensor(np.random.default_rng(0).standard_normal(5), requires_grad=True)
        err = grad_check(lambda: T.tsum(theta), theta)
    assert err <= 1e-10


def test_grad_check_softmax_cross_entropy():
    with precision(np.float64):
        theta = Tensor(np.array([0.3, -1.2, 2.0, 0.1]), requires_grad=True)
        onehot = Tensor(np.array([0.0, 0.0, 1.0, 0.0]))

        def f():
            logp = T.log_softmax(T.reshape(theta, (1, 4)), axis=1)
            return T.scale(T.tsum(T.mul(logp, T.reshape(onehot, (1, 4)))), -1.0)

        err = grad_check(f, theta)
    assert err <= 1e-6


def test_grad_check_detects_corrupted_backward():
    # an op with a deliberately wrong gradient must be flagged
    with precision(np.float64):
        theta = Tensor(np.array([0.7, -0.3, 1.1]), requires_grad=True)

        def bad_square(t):
            out = Tensor.__new__(Tensor)
            out.data = t.data**2
            out.grad = None
            out.requires_grad = True
            out._parents = (t,)
            out._backward_fn = lambda g: (g * 3.0 * t.data,)  # wrong: should be 2x
            return out

        err = grad_check(lambda: T.tsum(bad_square(theta)), theta)
    assert err > 1e-2


def test_forward_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        return T.relu(T.conv2d(x, w, pad=1)).data.tobytes()

    assert run() == run()


def test_batch_norm_running_stats_and_eval():
    rng = np.random.default_rng(3)
    gamma = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    rm, rv = np.zeros(2, dtype=np.float32), np.ones(2, dtype=np.float32)
    x = rng.standard_normal((8, 2, 4, 4)).astype(np.float32) * 3 + 1
    out = T.batch_norm(Tensor(x), gamma, beta, rm, rv, training=True)
    # train mode normalizes with batch stats
    assert abs(out.data.mean()) < 1e-5
    assert not np.allclose(rm, 0.0)  # running stats moved
    # eval mode uses the buffers and is deterministic
    e1 = T.batch_norm(Tensor(x), gamma, beta, rm, rv, training=False).data
    e2 = T.batch_norm(Tensor(x), gamma, beta, rm, rv, training=False).data
    assert np.array_equal(e1, e2)


def test_avg_pool_requires_even_dims():
    with pytest.raises(ContractError):
        T.avg_pool2(Tensor(np.zeros((1, 1, 3, 4))))


def test_avg_pool_and_gap_values():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    pooled = T.avg_pool2(Tensor(x)).data
    assert np.allclose(pooled[0, 0], [[2.5, 4.5], [10.5, 12.5]])
    assert np.allclose(T.global_avg_pool(Tensor(x)).data, x.mean())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 2, 4), (3, 5, 6, 10), (100, 8, 32, 32), (8, 512, 8, 8)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
def test_avg_pool_equals_reshape_mean(dtype, shape, scale):
    rng = np.random.default_rng(list(shape))
    x = (rng.standard_normal(shape) * scale).astype(dtype)
    b, c, h, w = shape
    expected = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    pooled = T.avg_pool2(Tensor(x, dtype=dtype)).data
    assert pooled.dtype == dtype
    assert np.array_equal(pooled, expected)


def test_gather_and_concat_roundtrip():
    a = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    picked = T.gather(a, np.array([2, 0, 2]), axis=0)
    assert np.array_equal(picked.data, a.data[[2, 0, 2]])
    both = T.concat([picked, picked], axis=1)
    loss = T.tsum(both)
    loss.backward()
    # row 2 picked twice, each copy concatenated twice
    assert np.allclose(a.grad[2], 4.0)
    assert np.allclose(a.grad[1], 0.0)


def test_reshape_size_mismatch():
    with pytest.raises(ShapeError):
        T.reshape(Tensor(np.zeros(6)), (4, 2))


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, x)
    assert y._backward_fn is None and not y.requires_grad


def test_detach_shares_data_without_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    d = x.detach()
    assert d.data is x.data and not d.requires_grad


def test_dtype_context():
    with precision(np.float64):
        assert Tensor(np.zeros(2)).dtype == np.float64
    assert Tensor(np.zeros(2)).dtype == np.float32


def test_float32_gradients_within_loose_tolerance():
    from attndistill.gradcheck_suite import run_float32_suite

    assert run_float32_suite(seeds=5, tolerance=1e-2) == []


def test_full_student_block_finite_differences():
    # end-to-end block loss in float64, checked at sampled coordinates
    from attndistill.models import ModelSpec, build_model

    with precision(np.float64):
        spec = ModelSpec("student", "hybrid", "toy", (4,), (1,), 3, 2,
                         classes=2, input_hw=8, expansion=2)
        model = build_model(spec, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        probe = Tensor(rng.standard_normal((2, 2)))

        def f():
            logits, _ = model.forward_with_taps(x, training=True)
            return T.tsum(T.mul(logits, probe))

        params = model.named_params()
        for name in ("s0.b0.sa.w_q", "s0.b0.sa.rel_pos", "s0.b0.conv1.w",
                     "s0.b0.bn2.gamma", "stem.w", "fc.w"):
            err = grad_check(f, params[name], coords=20, rng=np.random.default_rng(23))
            assert err <= 1e-4, (name, err)
