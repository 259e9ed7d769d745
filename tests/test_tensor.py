import gc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attndistill.tensor as T
from attndistill.errors import ContractError, NumericError, ShapeError
from attndistill.tensor import Tensor, grad_check, no_grad, precision, topo_order
from conftest import assert_worker_idle, hand_offs


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


def test_second_backward_raises_graph_consumed():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    loss = T.tsum(T.mul(T.relu(x), x))
    loss.backward()
    with pytest.raises(ContractError, match="graph already consumed by backward"):
        loss.backward()


def test_backward_frees_the_graph_as_it_goes():
    gc.disable()  # refcounting alone must free the graph
    try:
        x = _activation((2, 4, 8, 8))
        conv = T.conv2d(x, _activation((4, 4, 3, 3), 1), stride=1, pad=1)
        h = T.relu(conv)
        later = weakref.ref(h)
        alive_at_conv_backward = []
        conv_backward = conv._backward_fn

        def spy(g):
            alive_at_conv_backward.append(later() is not None)
            return conv_backward(g)

        conv._backward_fn = spy
        loss = T.tsum(T.mul(h, h))
        del conv, h, spy  # the caller holds only the loss
        assert later() is not None  # the graph holds it until backward
        loss.backward()
        # the relu node was released before the conv's backward ran
        assert alive_at_conv_backward == [False]
        assert later() is None and x.grad is not None
    finally:
        gc.enable()


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


def test_primitive_suite_catches_a_doubled_backward(monkeypatch):
    from attndistill.gradcheck_suite import run_primitive_suite

    def relu_doubled(a):
        out = a.data * (a.data > 0)
        return T._record(out, (a,), lambda g: (2 * g * (out > 0),))

    monkeypatch.setattr(T, "relu", relu_doubled)
    failures = run_primitive_suite(coords=4, seeds=1)
    assert [name for name, _ in failures] == ["relu"]


def test_both_suites_fail_a_nan_backward(monkeypatch):
    from attndistill.gradcheck_suite import run_float32_suite, run_primitive_suite

    def relu_nan(a):
        out = a.data * (a.data > 0)
        return T._record(out, (a,), lambda g: (np.full_like(g, np.nan),))

    monkeypatch.setattr(T, "relu", relu_nan)
    for failures in (run_primitive_suite(coords=4, seeds=1), run_float32_suite(seeds=1)):
        assert [name for name, _ in failures] == ["relu"]
        assert np.isnan(failures[0][1])


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


# --- lean autodiff graph: bit-exact against the formulations it replaced ---


def _conv2d_reference(x, w, g, stride, pad):
    """Output, input gradient and weight gradient of the full-im2col conv
    that copies every input and scatters every input gradient."""
    B, cin, H, W = x.shape
    cout, _, kh, kw = w.shape
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((B, cin, kh, kw, ho, wo), dtype=x.dtype)
    for di in range(kh):
        for dj in range(kw):
            cols[:, :, di, dj] = xp[:, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
    cols2 = cols.reshape(B, cin * kh * kw, ho * wo)
    wmat = w.reshape(cout, cin * kh * kw)
    out = np.matmul(wmat[None], cols2).reshape(B, cout, ho, wo)
    g2 = g.reshape(B, cout, ho * wo)
    dw64 = np.zeros(wmat.shape, dtype=np.float64)
    for b in range(B):
        dw64 += g2[b] @ cols2[b].T
    dcols = np.matmul(wmat.T[None], g2).reshape(B, cin, kh, kw, ho, wo)
    dxp = np.zeros_like(xp)
    for di in range(kh):
        for dj in range(kw):
            dxp[:, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride] += dcols[:, :, di, dj]
    dx = dxp[:, :, pad : pad + H, pad : pad + W] if pad else dxp
    return out, dx, dw64.astype(g.dtype).reshape(w.shape)


def _backward_with(out, g):
    out.grad = None
    T.tsum(T.mul(out, Tensor(g))).backward()


@pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (1, 2, 0), (3, 1, 1)])
@pytest.mark.parametrize("x_grad", [True, False])
def test_conv2d_bit_exact_against_full_im2col(k, stride, pad, x_grad):
    rng = np.random.default_rng([k, stride, pad])
    x = rng.standard_normal((4, 6, 8, 8)).astype(np.float32)
    x[0, 0, 0, :2] = -0.0
    w = rng.standard_normal((5, 6, k, k)).astype(np.float32)
    ho = (8 + 2 * pad - k) // stride + 1
    g = rng.standard_normal((4, 5, ho, ho)).astype(np.float32)
    g[:, :, ::2] = -0.0  # input gradients of exactly zero must come out as +0.0
    xt, wt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True)
    out = T.conv2d(xt, wt, stride=stride, pad=pad)
    _backward_with(out, g)
    ref_out, ref_dx, ref_dw = _conv2d_reference(x, w, g, stride, pad)
    assert out.data.tobytes() == ref_out.tobytes()
    assert wt.grad.tobytes() == ref_dw.tobytes()
    if x_grad:
        assert np.ascontiguousarray(xt.grad).tobytes() == np.ascontiguousarray(ref_dx).tobytes()
    else:
        assert xt.grad is None


@pytest.mark.parametrize("hw", [(8, 8), (7, 9), (6, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_strided_pointwise_conv_bit_exact_against_im2col(hw, dtype):
    """A bottleneck's `down` projection: 1x1 stride 2, at even and odd sizes."""
    H, W = hw
    rng = np.random.default_rng([H, W])
    x = rng.standard_normal((3, 6, H, W)).astype(dtype)
    w = rng.standard_normal((5, 6, 1, 1)).astype(dtype)
    g = rng.standard_normal((3, 5, (H + 1) // 2, (W + 1) // 2)).astype(dtype)
    g[:, :, ::2] = -0.0
    with precision(dtype):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = T.conv2d(xt, wt, stride=2)
        _backward_with(out, g)
    for got, want in zip((out.data, xt.grad, wt.grad), _conv2d_reference(x, w, g, 2, 0)):
        assert got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("hw", [(8, 8), (7, 9)])
def test_compacted_strided_pointwise_conv_matches_masked_dense(hw):
    rng = np.random.default_rng(list(hw))
    x = rng.standard_normal((2, 8, *hw)).astype(np.float32)
    w = rng.standard_normal((6, 8, 1, 1)).astype(np.float32)
    idx = np.array([0, 3, 4, 7])
    w[:, np.setdiff1d(np.arange(8), idx)] = 0
    with no_grad():
        dense = T.conv2d(Tensor(x), Tensor(w), stride=2).data
        live = (idx, w.reshape(6, 8)[:, idx])
        comp = T.conv2d(Tensor(x), Tensor(np.full_like(w, np.nan)), stride=2, live=live).data
    assert comp.shape == dense.shape
    assert np.abs(comp - dense).max() <= 1e-5 * np.abs(dense).max()


def _images_per_chunk(cin, k, ho):
    return max(1, T._COLS_BUDGET // (cin * k * k * ho * ho * 4))


@pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (1, 2, 0), (1, 1, 1), (3, 1, 1), (3, 2, 1), (3, 1, 0),
                                          (3, 2, 0)])
@pytest.mark.parametrize("batch", ["one", "chunks"])
def test_conv2d_without_a_graph_matches_full_im2col(k, stride, pad, batch):
    """The chunked column matrix of an op that records no node changes no byte."""
    ho = (8 + 2 * pad - k) // stride + 1
    n = _images_per_chunk(4, k, ho)
    B = 1 if batch == "one" else 2 * n + 1  # two full chunks and a remainder
    rng = np.random.default_rng([k, stride, pad, B])
    x = rng.standard_normal((B, 4, 8, 8)).astype(np.float32)
    x[0, 0, 0, :2] = -0.0
    w = rng.standard_normal((5, 4, k, k)).astype(np.float32)
    ref = _conv2d_reference(x, w, np.zeros((B, 5, ho, ho), np.float32), stride, pad)[0]
    with no_grad():
        out = T.conv2d(Tensor(x), Tensor(w, requires_grad=True), stride=stride, pad=pad)
    assert out.data.tobytes() == ref.tobytes() and out._backward_fn is None
    # a graph-free op on leaves that need no gradient takes the same path
    assert T.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 1)])
@pytest.mark.parametrize("batch", ["one", "chunks"])
def test_compacted_conv2d_is_the_per_image_product_on_the_gathered_rows(k, stride, pad, batch):
    ho = (8 + 2 * pad - k) // stride + 1
    B = 1 if batch == "one" else 2 * _images_per_chunk(4, k, ho) + 1
    rng = np.random.default_rng([k, stride, pad, B, 1])
    x = rng.standard_normal((B, 4, 8, 8)).astype(np.float32)
    idx = np.sort(rng.choice(4 * k * k, 3 * k, replace=False))
    wmat = rng.standard_normal((5, idx.size)).astype(np.float32)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((B, 4, k, k, ho, ho), dtype=np.float32)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj] = xp[:, :, di : di + stride * ho : stride, dj : dj + stride * ho : stride]
    rows = cols.reshape(B, 4 * k * k, ho * ho)[:, idx]
    want = np.stack([wmat @ rows[b] for b in range(B)]).reshape(B, 5, ho, ho)
    with no_grad():
        got = T.conv2d(Tensor(x), Tensor(np.full((5, 4, k, k), np.nan, np.float32)), stride=stride, pad=pad,
                       live=(idx, wmat)).data
    assert got.tobytes() == want.tobytes()


def _ops_with_overwrite(rng):
    """name -> (op taking `overwrite`, inputs) for the three ops that may write in place."""
    x = rng.standard_normal((3, 4, 5, 5)) * 2
    x[0, 0, 0, :3] = (-0.0, 0.0, -1.0)
    params = (rng.standard_normal(4), rng.standard_normal(4))
    rm, rv = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)
    return {
        "relu": (lambda a, **kw: T.relu(a, **kw), [x]),
        "add": (lambda a, b, **kw: T.add(a, b, **kw), [x, rng.standard_normal((3, 4, 5, 5))]),
        "add_scalar": (lambda a, **kw: T.add(a, 0.5, **kw), [x]),
        "batch_norm_eval": (lambda a, g, b, **kw: T.batch_norm(a, g, b, rm.copy(), rv.copy(), False, **kw),
                            [x, *params]),
        "batch_norm_train": (lambda a, g, b, **kw: T.batch_norm(a, g, b, rm.copy(), rv.copy(), True, **kw),
                             [x, *params]),
    }


@pytest.mark.parametrize("name", ["relu", "add", "add_scalar", "batch_norm_eval", "batch_norm_train"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_only_a_granted_op_with_no_graph_writes_into_its_input(name, dtype):
    """Without `overwrite` the inputs keep their bytes, as `grad_check`'s
    leaves must; with it an op writes in place only when it records no
    node, and either way the result has the bytes of a fresh one."""
    op, arrays = _ops_with_overwrite(np.random.default_rng(0))[name]
    arrays = [a.astype(dtype) for a in arrays]
    with precision(dtype):
        fresh = op(*[Tensor(a.copy()) for a in arrays]).data
        for grad, kw in ((False, {}), (True, {}), (True, {"overwrite": True})):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            if grad:
                out = op(*leaves, **kw)
            else:
                with no_grad():
                    out = op(*leaves, **kw)
            assert out.data.tobytes() == fresh.tobytes(), (name, grad, kw)
            assert all(t.data.tobytes() == a.tobytes() for t, a in zip(leaves, arrays)), (name, grad, kw)
            assert out.data is not leaves[0].data
        mine = Tensor(arrays[0].copy())
        with no_grad():
            out = op(mine, *[Tensor(a) for a in arrays[1:]], overwrite=True)
        assert out.data is mine.data and out.data.tobytes() == fresh.tobytes()


def _granted_chain(overwrite):
    """bn -> relu, then bn -> add of the shortcut -> relu, recorded, each
    op granted `overwrite` or not: the bytes of the output and of every
    leaf's gradient, and whether relu, the second bn, add and relu wrote
    into their first operand."""
    rng = np.random.default_rng(3)
    x, gamma, beta = (Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                      for shape in ((3, 4, 5, 5), (4,), (4,)))
    xs = x.data.copy()
    h = T.batch_norm(x, gamma, beta, np.zeros(4, np.float32), np.ones(4, np.float32), True, overwrite)
    r = T.relu(h, overwrite=overwrite)
    h2 = T.batch_norm(r, gamma, beta, np.zeros(4, np.float32), np.ones(4, np.float32), True, overwrite)
    s = T.add(h2, x, overwrite=overwrite)
    out = T.relu(s, overwrite=overwrite)
    wrote = [r.data is h.data, h2.data is r.data, s.data is h2.data, out.data is s.data]
    _backward_with(out, rng.standard_normal(out.shape).astype(np.float32))
    assert x.data.tobytes() == xs.tobytes()  # a leaf, and the shortcut, is never written
    return [a.tobytes() for a in (out.data, x.grad, gamma.grad, beta.grad)], wrote


def test_recorded_relu_and_add_write_into_a_granted_op_output():
    """While recording, a granted relu or add writes into its first operand
    when an op made it (a batch norm or an add, whose backward does not
    read its own output), and the output and gradients keep every byte;
    a recorded batch norm never writes into its input."""
    fresh, wrote = _granted_chain(False)
    assert wrote == [False, False, False, False]
    granted, wrote = _granted_chain(True)
    assert wrote == [True, False, True, True]
    assert granted == fresh


def _batch_norm_reference(x, gamma, beta, rm, rv, training, g, momentum=0.1, eps=1e-5):
    """Forward, running buffers and gradients of the batch norm that keeps
    its normalized copy, with np.var for the batch variance."""
    axes, cshape = (0, 2, 3), (1, -1, 1, 1)
    n = x.size // x.shape[1]
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        rm *= 1.0 - momentum
        rm += momentum * mean
        rv *= 1.0 - momentum
        rv += momentum * var * (n / max(n - 1, 1))
    else:
        mean, var = rm.astype(x.dtype), rv.astype(x.dtype)
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = (x - mean.reshape(cshape)) * inv_std.reshape(cshape)
    out = gamma.reshape(cshape) * xhat + beta.reshape(cshape)
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    gs = g * gamma.reshape(cshape)
    if training:
        m1 = gs.mean(axis=axes, keepdims=True)
        m2 = (gs * xhat).mean(axis=axes, keepdims=True)
        dx = inv_std.reshape(cshape) * (gs - m1 - xhat * m2)
    else:
        dx = gs * inv_std.reshape(cshape)
    return out, dx, dgamma, dbeta


@pytest.mark.parametrize("shape", [(8, 16, 8, 8), (5, 3, 2, 7), (100, 8, 4, 4), (16, 10, 1, 1)])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_bit_exact_against_kept_xhat(shape, training, dtype):
    rng = np.random.default_rng(list(shape))
    c = shape[1]
    x = (rng.standard_normal(shape) * 3 + 1.5).astype(dtype)
    gamma, beta = rng.standard_normal(c).astype(dtype), rng.standard_normal(c).astype(dtype)
    rm, rv = rng.standard_normal(c).astype(dtype), rng.uniform(0.5, 2, c).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    ref_rm, ref_rv = rm.copy(), rv.copy()
    ref = _batch_norm_reference(x, gamma, beta, ref_rm, ref_rv, training, g)
    with precision(dtype):
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = T.batch_norm(xt, gt, bt, rm, rv, training)
        _backward_with(out, g)
    for got, want in zip((out.data, xt.grad, gt.grad, bt.grad, rm, rv), ref + (ref_rm, ref_rv)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_relu_gradient_on_special_values():
    a = np.array([[-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-45, 2.5, -3.0]], dtype=np.float32)
    g = np.arange(1, 10, dtype=np.float32).reshape(1, 9)
    at = Tensor(a, requires_grad=True)
    with np.errstate(invalid="ignore"):
        out = T.relu(at)
        _backward_with(out, g)
        ref_out = a * (a > 0)
    assert out.data.tobytes() == ref_out.tobytes()
    assert at.grad.tobytes() == (g * (a > 0)).tobytes()


def _grads(x, ws, rel_pos, g, cs, ps):
    xt = Tensor(x, requires_grad=True)
    wts = [Tensor(w, requires_grad=True) for w in ws]
    _backward_with(T.local_attention(xt, *wts, Tensor(rel_pos), cs, ps), g)
    return xt.grad, [w.grad for w in wts]


@pytest.mark.parametrize("B,c,hw,heads,k", [(8, 64, 8, 8, 3), (100, 8, 8, 2, 3), (3, 12, 5, 4, 5)])
def test_local_attention_grads_match_tensordot_formulation(B, c, hw, heads, k):
    """Input and projection gradients against `np.matmul`/`np.tensordot` of
    the gradient of the q/k/v projections. That gradient comes from the op
    itself run on the projections with 0/1 selection matrices as weights:
    both GEMMs through those matrices are exact, so the run has the same
    logits and the same projection gradient."""
    rng = np.random.default_rng([B, c, hw])
    x = rng.standard_normal((B, c, hw, hw)).astype(np.float32)
    ws = [(rng.standard_normal((c, c)) * c**-0.5).astype(np.float32) for _ in range(3)]
    rel_pos = (rng.standard_normal((heads, 2 * k - 1, 2 * k - 1, c // heads)) * 0.3).astype(np.float32)
    g = rng.standard_normal((B, c, hw, hw)).astype(np.float32)
    cs, ps = c**-0.5, c**-0.25
    dx, dws = _grads(x, ws, rel_pos, g, cs, ps)

    w_all = np.concatenate(ws, axis=1)
    xt = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).reshape(c, -1)
    proj = (w_all.T @ xt).reshape(3 * c, hw, hw, B).transpose(3, 0, 1, 2)
    select = np.eye(3 * c, dtype=np.float32)
    dproj, _ = _grads(np.ascontiguousarray(proj), np.split(select, 3, axis=1), rel_pos, g, cs, ps)
    dproj = dproj.reshape(B, 3 * c, hw * hw)
    ref_dx = np.matmul(w_all, dproj).reshape(x.shape)
    ref_dw = np.tensordot(x.reshape(B, c, hw * hw), dproj, axes=([0, 2], [0, 2]))
    assert np.abs(dx - ref_dx).max() <= 1e-6 * np.abs(ref_dx).max()
    for got, want in zip(dws, np.split(ref_dw, 3, axis=1)):
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("B,c,hw,heads,k", [(100, 8, 8, 2, 3), (3, 12, 5, 4, 5)])
def test_local_attention_live_on_every_channel_is_the_dense_call(B, c, hw, heads, k):
    """A `live` that lists every input channel of each projection, as index
    arrays, runs the dense call's GEMMs and returns its bytes; the weight
    tensors, NaN here, are not read."""
    rng = np.random.default_rng([B, c, hw, 1])
    x = Tensor(rng.standard_normal((B, c, hw, hw)).astype(np.float32))
    ws = [(rng.standard_normal((c, c)) * c**-0.5).astype(np.float32) for _ in range(3)]
    rel_pos = Tensor((rng.standard_normal((heads, 2 * k - 1, 2 * k - 1, c // heads)) * 0.3).astype(np.float32))
    nan = Tensor(np.full((c, c), np.nan, np.float32))
    idx = np.arange(c)
    with no_grad():
        dense = T.local_attention(x, *map(Tensor, ws), rel_pos, c**-0.5, c**-0.25).data
        live = T.local_attention(x, nan, nan, nan, rel_pos, c**-0.5, c**-0.25,
                                 live=[(idx, w.T[:, idx]) for w in ws]).data
    assert live.tobytes() == dense.tobytes()


def _attention_inputs(heads, B=6, ch=3, hw=5, k=3, seed=0):
    rng = np.random.default_rng([heads, seed])
    c = heads * ch
    x = rng.standard_normal((B, c, hw, hw)).astype(np.float32)
    ws = [(rng.standard_normal((c, c)) * c**-0.5).astype(np.float32) for _ in range(3)]
    rel_pos = (rng.standard_normal((heads, 2 * k - 1, 2 * k - 1, ch)) * 0.3).astype(np.float32)
    return x, ws, rel_pos, rng.standard_normal((B, c, hw, hw)).astype(np.float32)


def _attention_bytes(heads, B=6):
    """The recorded output and its five gradients, then an unrecorded call
    on a `live` subset of input channels, all as bytes."""
    x, ws, rel_pos, g = _attention_inputs(heads, B=B)
    c = x.shape[1]
    leaves = [Tensor(a, requires_grad=True) for a in (x, *ws, rel_pos)]
    out = T.local_attention(*leaves, c**-0.5, c**-0.25)
    _backward_with(out, g)
    idx = np.arange(0, c, 2)
    with no_grad():
        live = T.local_attention(*map(Tensor, (x, *ws, rel_pos)), c**-0.5, c**-0.25,
                                 live=[(idx, w.T[:, idx]) for w in ws])
    return [a.tobytes() for a in (out.data, *(t.grad for t in leaves), live.data)]


def _two_images_per_chunk(monkeypatch, heads):
    """Shrink `_COLS_BUDGET` to two (c_out, 5, 5) maps of `_attention_inputs`,
    so 7 images run as 4 chunks of 1, 2, 2 and 2 images."""
    monkeypatch.setattr(T, "_COLS_BUDGET", 2 * heads * 3 * 25 * 4)


@pytest.mark.parametrize("heads", [1, 2, 3, 8])
def test_local_attention_split_over_two_threads_is_the_inline_call(heads, monkeypatch):
    """Four unequal chunks of 7 images, the last two in the worker thread,
    give the bytes of the same chunks run inline, as with one CPU, and of
    the whole batch as one chunk: output, the five gradients and the
    `live` forward. Each pass hands one half to the worker. So do the
    weight | input gradient GEMMs side by side, which these shapes split
    only with `_SPLIT_MACS` at 0."""
    handed = hand_offs(monkeypatch)
    _two_images_per_chunk(monkeypatch, heads)
    monkeypatch.setattr(T, "_TWO_CPUS", False)
    inline = _attention_bytes(heads, B=7)
    assert not handed
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    assert _attention_bytes(heads, B=7) == inline
    assert len(handed) == 3  # forward, backward, live forward
    monkeypatch.setattr(T, "_COLS_BUDGET", 1 << 30)
    assert _attention_bytes(heads, B=7) == inline
    assert len(handed) == 3
    monkeypatch.setattr(T, "_SPLIT_MACS", 0)
    assert _attention_bytes(heads, B=7) == inline
    assert len(handed) == 4  # the weight | input gradient GEMMs


@pytest.mark.parametrize("B", [1, 6])
def test_local_attention_in_one_chunk_starts_no_thread(B, monkeypatch):
    """A batch whose maps fit `_COLS_BUDGET` is one chunk and runs inline."""
    handed = hand_offs(monkeypatch)
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    assert len(_attention_bytes(2, B=B)) == 7
    assert not handed


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # numpy's, from either thread
def test_local_attention_error_in_the_second_half_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    _two_images_per_chunk(monkeypatch, 2)
    x, ws, rel_pos, _ = _attention_inputs(2, B=7)
    c = x.shape[1]
    bad = x.copy()
    bad[5:] = np.inf  # only the last chunk's images, so only the second thread's logits
    with pytest.raises(NumericError, match="local_attention logits"):
        T.local_attention(*map(Tensor, (bad, *ws, rel_pos)), c**-0.5, c**-0.25)
    assert_worker_idle()
    out = T.local_attention(*map(Tensor, (x, *ws, rel_pos)), c**-0.5, c**-0.25)
    assert np.isfinite(out.data).all()
    assert_worker_idle()


def test_local_attention_with_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(T, "_TWO_CPUS", False)
    _two_images_per_chunk(monkeypatch, 8)
    handed = hand_offs(monkeypatch)
    assert len(_attention_bytes(8, B=7)) == 7
    assert not handed


# (k, stride, pad, input needs grad, unrecorded call on live columns)
CONV_SPLITS = {"3x3": (3, 1, 1, True, False), "down": (1, 2, 0, True, False), "pointwise": (1, 1, 0, True, False),
               "stem": (3, 1, 1, False, False), "chunked-live": (3, 1, 1, False, True)}


def _conv_bytes(k, stride, pad, x_grad, live):
    """A recorded call's output and gradients, or an unrecorded call on
    every other weight column, as bytes; 7 images, so the halves are 4 | 3."""
    rng = np.random.default_rng([k, stride, pad, x_grad])
    x = rng.standard_normal((7, 4, 6, 6)).astype(np.float32)
    w = rng.standard_normal((5, 4, k, k)).astype(np.float32)
    if live:
        idx = np.arange(0, 4 * k * k, 2)
        with no_grad():
            out = T.conv2d(Tensor(x), Tensor(w), stride, pad, live=(idx, w.reshape(5, -1)[:, idx]))
        return [out.data.tobytes()]
    xt, wt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True)
    out = T.conv2d(xt, wt, stride=stride, pad=pad)
    _backward_with(out, rng.standard_normal(out.shape).astype(np.float32))
    return [a.tobytes() for a in (out.data, wt.grad) + ((xt.grad,) if x_grad else ())]


@pytest.mark.parametrize("case", CONV_SPLITS)
def test_conv2d_split_over_two_threads_is_the_inline_call(case, monkeypatch):
    """Images split 4 | 3 between this thread and the worker, and the weight
    and input gradients side by side, give the bytes of the inline call. Three
    images' 3x3 columns fill `_COLS_BUDGET`, so the unrecorded call's
    chunks, 0-2, 3-5, 6 inline, become 0-2, 3 | 4-6 in the halves' own
    buffers."""
    k, stride, pad, x_grad, live = CONV_SPLITS[case]
    monkeypatch.setattr(T, "_COLS_BUDGET", 3 * 4 * 9 * 36 * 4)
    handed = hand_offs(monkeypatch)
    monkeypatch.setattr(T, "_TWO_CPUS", False)
    monkeypatch.setattr(T, "_SPLIT_MACS", 0)
    inline = _conv_bytes(k, stride, pad, x_grad, live)
    assert not handed
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    assert _conv_bytes(k, stride, pad, x_grad, live) == inline
    assert len(handed) == 1 + x_grad  # the forward, and a backward with an input gradient


def test_conv2d_below_the_split_threshold_starts_no_thread(monkeypatch):
    """A call splits only when each thread's share comes to `_SPLIT_MACS`
    multiply-adds: here 2^24 for the forward's 4 images x 16 x 256 weights
    x 1024 pixels, and 2^25 for each gradient task, one image set each.
    Each split hands one half to the worker."""
    handed = hand_offs(monkeypatch)
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    x = Tensor(np.ones((8, 256, 32, 32), np.float32), requires_grad=True)
    w = Tensor(np.ones((16, 256, 1, 1), np.float32), requires_grad=True)
    g = np.ones((8, 16, 32, 32), np.float32)
    counts = []
    for least in (1 << 24, (1 << 24) + 1, (1 << 25) + 1):
        monkeypatch.setattr(T, "_SPLIT_MACS", least)
        _backward_with(T.conv2d(x, w), g)
        counts.append(len(handed))
    assert counts == [2, 3, 3]


def test_toy_models_split_only_their_attention_chunks(monkeypatch):
    """At B=100 every conv of the toy models falls below `_SPLIT_MACS`, and
    every attention layer's maps fill more than one chunk: a training step
    of the hybrid student hands one half to the worker per attention pass,
    and the teacher's no-grad forward one, its batch's second half, inside
    which every op runs inline."""
    from attndistill import models
    from attndistill.attention import SelfAttention

    handed = hand_offs(monkeypatch)
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((100, 3, 32, 32)).astype(np.float32))
    teacher, student = (models.build_model(models.spec_by_name("toy", role, variant, 2, 3, 2), rng)
                        for role, variant in (("teacher", "conv"), ("student", "hybrid")))
    with no_grad():
        teacher.forward_with_taps(x)
    assert len(handed) == 1
    logits, _ = student.forward_with_taps(x, training=True)
    T.tsum(logits).backward()
    attention = [layer for _, layer in student.named_layers() if isinstance(layer, SelfAttention)]
    assert attention and len(handed) == 1 + 2 * len(attention)


def test_conv2d_with_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(T, "_TWO_CPUS", False)
    monkeypatch.setattr(T, "_SPLIT_MACS", 0)
    handed = hand_offs(monkeypatch)
    for case in CONV_SPLITS.values():
        assert _conv_bytes(*case)
    assert not handed


def test_task_split_error_in_the_second_half_raises_in_the_caller(monkeypatch):
    """A failing item of a `_map_halves` split, run in the worker thread,
    raises in the caller once the first half is done, and leaves the
    worker idle for the next split."""
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    ran = []

    def task(item):
        if item == "boom":
            raise ShapeError("second half")
        ran.append(item)
        return item

    with pytest.raises(ShapeError, match="second half"):
        T._map_halves(task, ["a", "b", "boom"], T._SPLIT_MACS)
    assert ran == ["a", "b"]
    assert_worker_idle()
    assert T._map_halves(task, ["a", "b"], T._SPLIT_MACS) == ["a", "b"]
    assert_worker_idle()


# --- lean autodiff graph: what a recorded op keeps beyond its output ---


def _kept_bytes(op, *args, **kwargs):
    """Bytes still allocated after `op` returns, less its output array:
    the arrays its backward closure holds, plus a few small objects."""
    import tracemalloc

    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op(*args, **kwargs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert out.requires_grad
    return kept - out.data.nbytes, out


def _activation(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32), requires_grad=True)


SMALL = 16 * 1024  # Tensor objects, closures and per-channel vectors


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_keeps_no_full_size_array(training):
    x = _activation((8, 64, 16, 16))  # 512 KB
    c = x.shape[1]
    gamma, beta = _activation((c,), 1), _activation((c,), 2)
    rm, rv = np.zeros(c, np.float32), np.ones(c, np.float32)
    kept, _ = _kept_bytes(T.batch_norm, x, gamma, beta, rm, rv, training)
    assert kept < SMALL


def test_relu_keeps_no_mask():
    x = _activation((8, 64, 16, 16))
    kept, _ = _kept_bytes(T.relu, x)
    assert kept < SMALL


def test_abspow_keeps_no_magnitude_copy():
    x = _activation((8, 64, 16, 16))
    kept, _ = _kept_bytes(T.abspow, x, 2.0)
    assert kept < SMALL


def test_pointwise_conv_keeps_no_copy_of_its_input():
    x = _activation((8, 64, 16, 16))
    kept, _ = _kept_bytes(T.conv2d, x, _activation((32, 64, 1, 1), 1))
    assert kept < SMALL


def test_padded_conv_keeps_its_columns_but_no_padded_copy():
    x = _activation((8, 16, 16, 16))  # 128 KB; the padded copy would be 162 KB
    kept, _ = _kept_bytes(T.conv2d, x, _activation((8, 16, 3, 3), 1), stride=1, pad=1)
    assert kept < 9 * x.data.nbytes + SMALL


def test_local_attention_keeps_only_its_softmax_weights():
    """The backward rebuilds each chunk's queries and padded keys and values from x."""
    B, c, hw, heads, k = 8, 64, 16, 8, 3
    x = _activation((B, c, hw, hw))
    ws = [_activation((c, c), s) for s in (1, 2, 3)]
    rel_pos = _activation((heads, 2 * k - 1, 2 * k - 1, c // heads), 4)
    kept, _ = _kept_bytes(T.local_attention, x, *ws, rel_pos, c**-0.5, c**-0.25)
    weights = x.data.nbytes * k * k // (c // heads)  # heads * k*k values per pixel, x's c per pixel
    assert kept < weights + SMALL
