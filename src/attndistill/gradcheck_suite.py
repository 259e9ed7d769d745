"""Finite-difference audit of every differentiable primitive.

Each case rebuilds a small computation in float64 and compares analytic
gradients against central differences at sampled coordinates. The scalar
readout contracts the op output with a fixed random probe so that
symmetries (e.g. the fixed norm of batch-norm outputs) cannot hide a wrong
backward rule.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import init_attention_params, local_self_attention
from .tensor import Tensor, grad_check, precision

TOLERANCE = 1e-4


def _probe_sum(out: Tensor, rng) -> Tensor:
    probe = Tensor(rng.standard_normal(out.shape))
    return T.tsum(T.mul(out, probe))


def _leaf(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _case_add(rng):
    a, b = _leaf(rng, (4, 6)), _leaf(rng, (1, 6))
    return lambda: _probe_sum(T.add(a, b), np.random.default_rng(7)), [a, b]


def _case_mul(rng):
    a, b = _leaf(rng, (4, 6)), _leaf(rng, (4, 1))
    return lambda: _probe_sum(T.mul(a, b), np.random.default_rng(7)), [a, b]


def _case_scale(rng):
    a = _leaf(rng, (5, 5))
    return lambda: _probe_sum(T.scale(a, -2.5), np.random.default_rng(7)), [a]


def _case_div(rng):
    a = _leaf(rng, (4, 5))
    b = Tensor(rng.uniform(0.5, 2.0, (4, 1)), requires_grad=True)
    return lambda: _probe_sum(T.div(a, b), np.random.default_rng(7)), [a, b]


def _case_sqrt(rng):
    a = Tensor(rng.uniform(0.2, 3.0, (4, 6)), requires_grad=True)
    return lambda: _probe_sum(T.sqrt(a), np.random.default_rng(7)), [a]


def _case_abspow(rng):
    a = Tensor(rng.standard_normal((4, 6)) + 0.5, requires_grad=True)
    return lambda: _probe_sum(T.abspow(a, 2.0), np.random.default_rng(7)), [a]


def _case_relu(rng):
    a = Tensor(rng.standard_normal((5, 5)) + 0.05, requires_grad=True)
    return lambda: _probe_sum(T.relu(a), np.random.default_rng(7)), [a]


def _case_sum(rng):
    a = _leaf(rng, (3, 4, 5))
    return lambda: _probe_sum(T.tsum(a, axis=1), np.random.default_rng(7)), [a]


def _case_mean(rng):
    a = _leaf(rng, (3, 4, 5))
    return lambda: _probe_sum(T.tmean(a, axis=(0, 2)), np.random.default_rng(7)), [a]


def _case_reshape(rng):
    a = _leaf(rng, (4, 6))
    return lambda: _probe_sum(T.reshape(a, (2, 12)), np.random.default_rng(7)), [a]


def _case_transpose(rng):
    a = _leaf(rng, (3, 4, 5))
    return lambda: _probe_sum(T.transpose(a, (2, 0, 1)), np.random.default_rng(7)), [a]


def _case_concat(rng):
    a, b = _leaf(rng, (3, 4)), _leaf(rng, (3, 2))
    return lambda: _probe_sum(T.concat([a, b], axis=1), np.random.default_rng(7)), [a, b]


def _case_gather(rng):
    a = _leaf(rng, (7, 4))
    idx = np.array([0, 3, 3, 6, 1])
    return lambda: _probe_sum(T.gather(a, idx, axis=0), np.random.default_rng(7)), [a]


def _case_matmul(rng):
    a, b = _leaf(rng, (5, 7)), _leaf(rng, (7, 4))
    return lambda: _probe_sum(T.matmul(a, b), np.random.default_rng(7)), [a, b]


def _case_softmax(rng):
    a = _leaf(rng, (5, 6))
    return lambda: _probe_sum(T.softmax(a, axis=1), np.random.default_rng(7)), [a]


def _case_log_softmax(rng):
    a = _leaf(rng, (5, 6))
    return lambda: _probe_sum(T.log_softmax(a, axis=1), np.random.default_rng(7)), [a]


def _case_conv2d(rng):
    x, w = _leaf(rng, (2, 3, 6, 6)), _leaf(rng, (4, 3, 3, 3))
    return lambda: _probe_sum(T.conv2d(x, w, stride=1, pad=1), np.random.default_rng(7)), [x, w]


def _case_conv2d_strided(rng):
    x, w = _leaf(rng, (2, 3, 7, 7)), _leaf(rng, (4, 3, 3, 3))
    return lambda: _probe_sum(T.conv2d(x, w, stride=2, pad=1), np.random.default_rng(7)), [x, w]


def _case_avg_pool(rng):
    x = _leaf(rng, (2, 3, 6, 6))
    return lambda: _probe_sum(T.avg_pool2(x), np.random.default_rng(7)), [x]


def _case_global_avg_pool(rng):
    x = _leaf(rng, (2, 5, 4, 4))
    return lambda: _probe_sum(T.global_avg_pool(x), np.random.default_rng(7)), [x]


def _case_batch_norm_train(rng):
    x = _leaf(rng, (4, 3, 5, 5))
    g = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    b = _leaf(rng, (3,))
    rm, rv = np.zeros(3), np.ones(3)
    fn = lambda: _probe_sum(T.batch_norm(x, g, b, rm, rv, training=True), np.random.default_rng(7))
    return fn, [x, g, b]


def _case_batch_norm_eval(rng):
    x = _leaf(rng, (4, 3, 5, 5))
    g = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    b = _leaf(rng, (3,))
    rm, rv = rng.standard_normal(3) * 0.1, np.ones(3) + rng.uniform(0, 0.5, 3)
    fn = lambda: _probe_sum(T.batch_norm(x, g, b, rm, rv, training=False), np.random.default_rng(7))
    return fn, [x, g, b]


def _case_window_gather(rng):
    x = _leaf(rng, (2, 4, 5, 3))
    return lambda: _probe_sum(T.window_gather(x, 3), np.random.default_rng(7)), [x]


def _case_nbhd_dot(rng):
    q, kn = _leaf(rng, (2, 6, 2, 3)), _leaf(rng, (2, 6, 2, 9, 3))
    return lambda: _probe_sum(T.nbhd_dot(q, kn), np.random.default_rng(7)), [q, kn]


def _case_relpos_dot(rng):
    q, r = _leaf(rng, (2, 6, 2, 3)), _leaf(rng, (2, 9, 3))
    return lambda: _probe_sum(T.relpos_dot(q, r), np.random.default_rng(7)), [q, r]


def _case_nbhd_mix(rng):
    w, vn = _leaf(rng, (2, 6, 2, 9)), _leaf(rng, (2, 6, 2, 9, 3))
    return lambda: _probe_sum(T.nbhd_mix(w, vn), np.random.default_rng(7)), [w, vn]


def _case_local_attention(rng):
    # k=5 on a 3x4 map: every window overhangs the image
    x = _leaf(rng, (2, 3, 3, 4))
    w_q, w_k, w_v = (_leaf(rng, (3, 4)) for _ in range(3))
    rel_pos = _leaf(rng, (2, 9, 9, 2))
    out = lambda: T.local_attention(x, w_q, w_k, w_v, rel_pos, 0.5, 0.7)
    return lambda: _probe_sum(out(), np.random.default_rng(7)), [x, w_q, w_k, w_v, rel_pos]


def _case_attention_layer(rng):
    params = init_attention_params(3, 4, 2, 3, rng)
    x = _leaf(rng, (2, 3, 4, 4))
    fn = lambda: _probe_sum(local_self_attention(x, params), np.random.default_rng(7))
    return fn, [x, params.w_q, params.w_k, params.w_v, params.rel_pos]


CASES = [
    ("add", _case_add),
    ("mul", _case_mul),
    ("scale", _case_scale),
    ("div", _case_div),
    ("sqrt", _case_sqrt),
    ("abspow", _case_abspow),
    ("relu", _case_relu),
    ("sum", _case_sum),
    ("mean", _case_mean),
    ("reshape", _case_reshape),
    ("transpose", _case_transpose),
    ("concat", _case_concat),
    ("gather", _case_gather),
    ("matmul", _case_matmul),
    ("softmax", _case_softmax),
    ("log_softmax", _case_log_softmax),
    ("conv2d", _case_conv2d),
    ("conv2d_stride2", _case_conv2d_strided),
    ("avg_pool2", _case_avg_pool),
    ("global_avg_pool", _case_global_avg_pool),
    ("batch_norm_train", _case_batch_norm_train),
    ("batch_norm_eval", _case_batch_norm_eval),
    ("window_gather", _case_window_gather),
    ("nbhd_dot", _case_nbhd_dot),
    ("relpos_dot", _case_relpos_dot),
    ("nbhd_mix", _case_nbhd_mix),
    ("local_attention", _case_local_attention),
    ("attention_layer", _case_attention_layer),
]


def run_primitive_suite(coords: int = 20, seeds: int = 5, tolerance: float = TOLERANCE,
                        verbose: bool = False):
    """Run every case across `seeds` seeds in float64; returns the failures."""
    failures = []
    with precision(np.float64):
        for name, builder in CASES:
            worst = 0.0
            for seed in range(seeds):
                rng = np.random.default_rng([11, seed])
                fn, leaves = builder(rng)
                for leaf in leaves:
                    err = grad_check(fn, leaf, coords=coords, rng=np.random.default_rng([13, seed]))
                    worst = max(worst, err)
            ok = worst <= tolerance
            if verbose:
                print(f"gradcheck {name:<18} max_rel_err {worst:.3e} {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append((name, worst))
    return failures


def run_float32_suite(seeds: int = 5, tolerance: float = 1e-2, verbose: bool = False):
    """32-bit gradient accuracy: float32 analytic grads vs float64 analytic.

    Central differences are useless in float32 (the per-coordinate
    perturbation of a summed loss sits below the loss's own rounding), so
    the float64 gradients validated by `run_primitive_suite` serve as the
    reference instead.
    """

    def leaf_grads(builder, seed, dtype):
        with precision(dtype):
            rng = np.random.default_rng([11, seed])
            fn, leaves = builder(rng)
            loss = fn()
            for leaf in leaves:
                leaf.zero_grad()
            loss.backward()
            return [leaf.grad.astype(np.float64) for leaf in leaves]

    failures = []
    for name, builder in CASES:
        worst = 0.0
        for seed in range(seeds):
            g32 = leaf_grads(builder, seed, np.float32)
            g64 = leaf_grads(builder, seed, np.float64)
            for a, b in zip(g32, g64):
                err = np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-12)
                worst = max(worst, float(err.max()))
        ok = worst <= tolerance
        if verbose:
            print(f"gradcheck32 {name:<18} max_rel_err {worst:.3e} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append((name, worst))
    return failures
