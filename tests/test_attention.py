import numpy as np
import pytest

import attndistill.tensor as T
from attndistill.attention import (
    SelfAttention,
    init_attention_params,
    local_self_attention,
)
from attndistill.errors import ConfigError, ContractError, ShapeError
from attndistill.models import Conv2d
from attndistill.tensor import Tensor, grad_check, precision


def brute_force_attention(xd, p):
    """Independent per-pixel loop implementation of the windowed attention."""
    bsz, _, h, w = xd.shape
    k, n_heads, c_out, ch = p.extent, p.heads, p.c_out, p.head_dim
    half = k // 2
    pos_div = c_out**0.25
    out = np.zeros((bsz, c_out, h, w))
    for b in range(bsz):
        for i in range(h):
            for j in range(w):
                q = xd[b, :, i, j] @ p.w_q.data
                for hd in range(n_heads):
                    qh = q[hd * ch : (hd + 1) * ch]
                    logits, values = [], []
                    for di in range(-half, half + 1):
                        for dj in range(-half, half + 1):
                            a, c = i + di, j + dj
                            if not (0 <= a < h and 0 <= c < w):
                                continue
                            kh = (xd[b, :, a, c] @ p.w_k.data)[hd * ch : (hd + 1) * ch]
                            rh = p.rel_pos.data[hd, di + k - 1, dj + k - 1]
                            logits.append(qh @ kh / np.sqrt(c_out) + qh @ rh / pos_div)
                            values.append((xd[b, :, a, c] @ p.w_v.data)[hd * ch : (hd + 1) * ch])
                    logits = np.asarray(logits) - max(logits)
                    weights = np.exp(logits)
                    weights /= weights.sum()
                    out[b, hd * ch : (hd + 1) * ch, i, j] = (weights[:, None] * np.asarray(values)).sum(0)
    return out


def valid_slots(h: int, w: int, k: int) -> np.ndarray:
    """(H, W, k*k) mask of the neighborhood slots inside the image, with the
    k*k offsets in row-major order."""
    d = np.arange(k) - k // 2
    rows = (np.arange(h)[:, None] + d >= 0) & (np.arange(h)[:, None] + d < h)  # (H, k)
    cols = (np.arange(w)[:, None] + d >= 0) & (np.arange(w)[:, None] + d < w)  # (W, k)
    return (rows[:, None, :, None] & cols[None, :, None, :]).reshape(h, w, k * k)


def neighborhoods(x: np.ndarray, k: int):
    """k x k neighborhoods of an NCHW map as (B, H, W, k*k, C) patches, plus
    the (H, W, k*k) in-bounds mask: `window_gather` on the BHWC layout."""
    _, _, h, w = x.shape
    return T.window_gather(Tensor(x.transpose(0, 2, 3, 1)), k), valid_slots(h, w, k)


def test_neighborhood_extract_k1_is_identity():
    x = np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32)
    patches, valid = neighborhoods(x, 1)
    assert patches.shape == (2, 4, 4, 1, 3)
    assert valid.all()
    assert np.allclose(patches.data[:, :, :, 0, :], x.transpose(0, 2, 3, 1))


def test_neighborhood_extract_single_pixel():
    patches, valid = neighborhoods(np.full((1, 1, 1, 1), 5.0), 3)
    assert patches.shape == (1, 1, 1, 9, 1)
    assert valid.sum() == 1 and valid[0, 0, 4]
    assert patches.data[0, 0, 0, 4, 0] == 5.0
    assert (patches.data.reshape(-1)[np.arange(9) != 4] == 0).all()


def test_neighborhood_extract_ramp_corner():
    ramp = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    patches, valid = neighborhoods(ramp, 3)
    # at (0,0) only the {0,1}x{0,1} window is in bounds
    got = patches.data[0, 0, 0, :, 0]
    for d, (di, dj) in enumerate((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)):
        si, sj = 0 + di, 0 + dj
        if 0 <= si < 4 and 0 <= sj < 4:
            assert valid[0, 0, d]
            assert got[d] == ramp[0, 0, si, sj]
        else:
            assert not valid[0, 0, d]
            assert got[d] == 0.0


def test_neighborhood_extract_rejects_even_extent():
    with pytest.raises(ContractError):
        neighborhoods(np.zeros((1, 1, 4, 4)), 2)


def test_k1_attention_is_value_projection():
    rng = np.random.default_rng(1)
    p = init_attention_params(3, 6, 2, 1, rng)
    x = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
    y = local_self_attention(Tensor(x), p).data
    expected = np.einsum("bchw,cd->bdhw", x, p.w_v.data)
    assert np.abs(y - expected).max() <= 1e-6


def test_uniform_attention_when_logits_vanish():
    rng = np.random.default_rng(2)
    p = init_attention_params(2, 4, 2, 3, rng)
    p.w_q.data[:] = 0.0
    p.rel_pos.data[:] = 0.0
    x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
    y = local_self_attention(Tensor(x), p).data
    v = np.einsum("bchw,cd->bdhw", x, p.w_v.data)
    # each output pixel averages v over its in-bounds neighborhood
    for i in range(3):
        for j in range(3):
            nb = [
                v[0, :, a, b]
                for a in range(max(0, i - 1), min(3, i + 2))
                for b in range(max(0, j - 1), min(3, j + 2))
            ]
            assert np.abs(y[0, :, i, j] - np.mean(nb, axis=0)).max() <= 1e-6


@pytest.mark.parametrize("cin,cout,heads,k,h,w", [
    (2, 2, 1, 3, 2, 2),
    (3, 8, 2, 3, 4, 3),
    (5, 6, 2, 1, 2, 4),
    (4, 4, 2, 3, 3, 4),
    (3, 4, 1, 5, 6, 4),
    (2, 8, 4, 5, 3, 2),
    (4, 8, 4, 5, 7, 3),
])
def test_attention_matches_brute_force(cin, cout, heads, k, h, w):
    with precision(np.float64):
        rng = np.random.default_rng(hash((cin, cout, heads, k)) % 2**32)
        p = init_attention_params(cin, cout, heads, k, rng)
        x = rng.standard_normal((2, cin, h, w))
        y = local_self_attention(Tensor(x), p).data
        assert np.abs(y - brute_force_attention(x, p)).max() <= 1e-5


@pytest.mark.parametrize("heads,k,h,w", [(1, 5, 4, 6), (4, 5, 2, 4), (4, 3, 6, 2)])
def test_stride2_attention_matches_pooled_brute_force(heads, k, h, w):
    with precision(np.float64):
        rng = np.random.default_rng([heads, k, h, w])
        p = init_attention_params(3, 8, heads, k, rng, stride=2)
        x = rng.standard_normal((2, 3, h, w))
        y = local_self_attention(Tensor(x), p).data
        pooled = brute_force_attention(x, p).reshape(2, 8, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        assert np.abs(y - pooled).max() <= 1e-5


def test_attention_puts_no_weight_on_padded_slots():
    """k=5 on a 3x4 map: every window overhangs the image, so any softmax
    weight on a padded slot would rescale the output far beyond 1e-10."""
    with precision(np.float64):
        rng = np.random.default_rng(3)
        p = init_attention_params(3, 4, 2, 5, rng)
        x = rng.standard_normal((2, 3, 3, 4))
        y = local_self_attention(Tensor(x), p).data
        assert np.abs(y - brute_force_attention(x, p)).max() <= 1e-10


def test_attention_batch_permutation_equivariance():
    rng = np.random.default_rng(4)
    p = init_attention_params(3, 4, 2, 3, rng)
    x = rng.standard_normal((4, 3, 4, 4)).astype(np.float32)
    perm = np.array([2, 0, 3, 1])
    y = local_self_attention(Tensor(x), p).data
    y_perm = local_self_attention(Tensor(x[perm]), p).data
    assert np.array_equal(y[perm], y_perm)


def test_attention_locality():
    rng = np.random.default_rng(5)
    p = init_attention_params(3, 4, 2, 3, rng)
    x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
    y = local_self_attention(Tensor(x), p).data
    x2 = x.copy()
    x2[0, :, 3:, :] += 10.0  # outside N_3(0, 0)
    y2 = local_self_attention(Tensor(x2), p).data
    assert np.allclose(y[0, :, 0, 0], y2[0, :, 0, 0], atol=1e-6)
    assert not np.allclose(y[0, :, 4, 4], y2[0, :, 4, 4], atol=1e-3)


def test_head_isolation():
    rng = np.random.default_rng(6)
    p = init_attention_params(3, 8, 2, 3, rng)
    x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
    y = local_self_attention(Tensor(x), p).data
    # perturbing head 1's positional table must not touch head 0's channels;
    # the bump is offset-dependent (a constant shift would cancel in softmax)
    p.rel_pos.data[1, 2, 2, :] += 0.7
    y2 = local_self_attention(Tensor(x), p).data
    assert np.array_equal(y[:, :4], y2[:, :4])
    assert not np.allclose(y[:, 4:], y2[:, 4:])


def test_projection_count_independent_of_extent():
    rng = np.random.default_rng(7)
    for k in (3, 7):
        layer = init_attention_params(64, 64, 8, k, rng)
        assert sum(layer.params()[n].size for n in layer.PRUNABLE) == 3 * 64 * 64 == 12288
        # and the conv equivalent grows with k^2
        assert Conv2d(64, 64, k, 1, 8, rng).w.size == k * k * 64 * 64


def test_head_divisibility_config_error():
    with pytest.raises(ConfigError):
        SelfAttention(4, 6, 4, 3, np.random.default_rng(0))


def test_channel_mismatch_shape_error():
    rng = np.random.default_rng(8)
    p = init_attention_params(3, 4, 2, 3, rng)
    with pytest.raises(ShapeError):
        local_self_attention(Tensor(np.zeros((1, 5, 4, 4), dtype=np.float32)), p)


def test_stride2_pools_after_attention():
    rng = np.random.default_rng(11)
    p1 = init_attention_params(3, 4, 2, 3, rng, stride=1)
    p2 = init_attention_params(3, 4, 2, 3, rng, stride=2)
    p2.w_q, p2.w_k, p2.w_v, p2.rel_pos = p1.w_q, p1.w_k, p1.w_v, p1.rel_pos
    x = Tensor(np.random.default_rng(12).standard_normal((1, 3, 4, 4)).astype(np.float32))
    full = local_self_attention(x, p1)
    halved = local_self_attention(x, p2)
    assert halved.shape == (1, 4, 2, 2)
    assert np.allclose(T.avg_pool2(full).data, halved.data)


def test_layer_gradcheck_all_parameters():
    with precision(np.float64):
        rng = np.random.default_rng(13)
        p = init_attention_params(2, 4, 2, 3, rng)
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        probe = Tensor(rng.standard_normal((1, 4, 3, 3)))
        f = lambda: T.tsum(T.mul(local_self_attention(x, p), probe))
        for leaf in (x, p.w_q, p.w_k, p.w_v, p.rel_pos):
            assert grad_check(f, leaf, rng=np.random.default_rng(14)) <= 1e-4
