"""Finite-difference audit of every differentiable primitive.

Each case rebuilds a small computation in float64 and compares analytic
gradients against central differences at sampled coordinates. The scalar
readout contracts the op output with a fixed random probe so that
symmetries (e.g. the fixed norm of batch-norm outputs) cannot hide a wrong
backward rule.

To add a case, append a `CASES` row `(name, op, draws)`. `_build` draws
one leaf per `normal(*shape)` or `uniform(lo, hi, *shape)` in `draws`, in
order, from `default_rng([11, seed])`, and the loss reads out `op(*leaves)`.
A case that also needs non-leaf buffers or initializer-made parameters
gives a builder `rng -> (op, leaves)` as its `op` and `None` as `draws`.
Each `op` calls `T.<primitive>` inside a lambda, so the primitive is
looked up when the loss is recorded: a wrapped or monkeypatched primitive
is the one the audit checks.
"""

from __future__ import annotations

import numpy as np

from . import attention as A
from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor, grad_check, precision

TOLERANCE = 1e-4


def normal(*shape, shift=0.0):
    return lambda rng: rng.standard_normal(shape) + shift


def uniform(lo, hi, *shape):
    return lambda rng: rng.uniform(lo, hi, shape)


def _leaves(rng, draws):
    return [Tensor(draw(rng), requires_grad=True) for draw in draws]


def _batch_norm_eval(rng):
    leaves = _leaves(rng, [normal(4, 3, 5, 5), uniform(0.5, 1.5, 3), normal(3)])
    rm, rv = rng.standard_normal(3) * 0.1, np.ones(3) + rng.uniform(0, 0.5, 3)
    return (lambda x, g, b: T.batch_norm(x, g, b, rm, rv, training=False)), leaves


def _attention_layer(rng):
    params = A.init_attention_params(3, 4, 2, 3, rng)
    leaves = [*_leaves(rng, [normal(2, 3, 4, 4)]), params.w_q, params.w_k, params.w_v, params.rel_pos]
    return (lambda x, *_: A.local_self_attention(x, params)), leaves


CASES = [
    ("add", lambda a, b: T.add(a, b), [normal(4, 6), normal(1, 6)]),
    ("mul", lambda a, b: T.mul(a, b), [normal(4, 6), normal(4, 1)]),
    ("scale", lambda a: T.scale(a, -2.5), [normal(5, 5)]),
    ("div", lambda a, b: T.div(a, b), [normal(4, 5), uniform(0.5, 2.0, 4, 1)]),
    ("sqrt", lambda a: T.sqrt(a), [uniform(0.2, 3.0, 4, 6)]),
    ("abspow", lambda a: T.abspow(a, 2.0), [normal(4, 6, shift=0.5)]),
    ("abspow_p1", lambda a: T.abspow(a, 1.0), [normal(4, 6, shift=0.5)]),
    ("relu", lambda a: T.relu(a), [normal(5, 5, shift=0.05)]),
    ("sum", lambda a: T.tsum(a, axis=1), [normal(3, 4, 5)]),
    ("mean", lambda a: T.tmean(a), [normal(3, 4, 5)]),
    ("reshape", lambda a: T.reshape(a, (2, 12)), [normal(4, 6)]),
    ("transpose", lambda a: T.transpose(a, (2, 0, 1)), [normal(3, 4, 5)]),
    ("concat", lambda a, b: T.concat([a, b], axis=1), [normal(3, 4), normal(3, 2)]),
    ("gather", lambda a: T.gather(a, np.array([0, 3, 3, 6, 1]), axis=0), [normal(7, 4)]),
    ("matmul", lambda a, b: T.matmul(a, b), [normal(5, 7), normal(7, 4)]),
    ("softmax", lambda a: T.softmax(a, axis=1), [normal(5, 6)]),
    ("log_softmax", lambda a: T.log_softmax(a, axis=1), [normal(5, 6)]),
    ("conv2d", lambda x, w: T.conv2d(x, w, stride=1, pad=1), [normal(2, 3, 6, 6), normal(4, 3, 3, 3)]),
    ("conv2d_stride2", lambda x, w: T.conv2d(x, w, stride=2, pad=1), [normal(2, 3, 7, 7), normal(4, 3, 3, 3)]),
    ("conv2d_1x1", lambda x, w: T.conv2d(x, w), [normal(3, 5, 4, 4), normal(6, 5, 1, 1)]),
    # the shape of a bottleneck's `down` projection
    ("conv2d_1x1_stride2", lambda x, w: T.conv2d(x, w, stride=2), [normal(3, 5, 6, 6), normal(6, 5, 1, 1)]),
    ("avg_pool2", lambda x: T.avg_pool2(x), [normal(2, 3, 6, 6)]),
    ("global_avg_pool", lambda x: T.global_avg_pool(x), [normal(2, 5, 4, 4)]),
    ("batch_norm_train", lambda x, g, b: T.batch_norm(x, g, b, np.zeros(3), np.ones(3), training=True),
     [normal(4, 3, 5, 5), uniform(0.5, 1.5, 3), normal(3)]),
    ("batch_norm_eval", _batch_norm_eval, None),
    ("window_gather", lambda x: T.window_gather(x, 3), [normal(2, 4, 5, 3)]),
    ("nbhd_dot", lambda q, kn: T.nbhd_dot(q, kn), [normal(2, 6, 2, 3), normal(2, 6, 2, 9, 3)]),
    ("relpos_dot", lambda q, r: T.relpos_dot(q, r), [normal(2, 6, 2, 3), normal(2, 9, 3)]),
    ("nbhd_mix", lambda w, vn: T.nbhd_mix(w, vn), [normal(2, 6, 2, 9), normal(2, 6, 2, 9, 3)]),
    # k=5 on a 3x4 map: every window overhangs the image
    ("local_attention", lambda *xs: T.local_attention(*xs, 0.5, 0.7),
     [normal(2, 3, 3, 4), normal(3, 4), normal(3, 4), normal(3, 4), normal(2, 9, 9, 2)]),
    ("attention_layer", _attention_layer, None),
]


def _build(case, seed):
    """The case's probed scalar loss, as a closure over its leaves, and the leaves."""
    _, op, draws = case
    rng = np.random.default_rng([11, seed])
    if draws is None:
        op, leaves = op(rng)
    else:
        leaves = _leaves(rng, draws)

    def loss():
        out = op(*leaves)
        return T.tsum(T.mul(out, Tensor(np.random.default_rng(7).standard_normal(out.shape))))

    return loss, leaves


def _suite(label, errors, seeds, tolerance, verbose):
    """Fold `errors(case, seed)` over seeds into each case's worst error; returns the failures."""
    failures = []
    for case in CASES:
        name, worst = case[0], 0.0
        for seed in range(seeds):
            for err in errors(case, seed):
                worst = float(np.maximum(worst, err))  # keeps a NaN error NaN
        ok = worst <= tolerance
        if verbose:
            print(f"{label} {name:<18} max_rel_err {worst:.3e} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append((name, worst))
    return failures


def run_primitive_suite(coords: int = 20, seeds: int = 5, tolerance: float = TOLERANCE,
                        verbose: bool = False):
    """Run every case across `seeds` seeds in float64; returns the failures."""
    for name, count in (("seeds", seeds), ("coords", coords)):
        if count < 1:
            raise ConfigError(f"gradcheck {name} must be >= 1, got {count}")

    def errors(case, seed):
        loss, leaves = _build(case, seed)
        return [grad_check(loss, leaf, coords=coords, rng=np.random.default_rng([13, seed]))
                for leaf in leaves]

    with precision(np.float64):
        return _suite("gradcheck", errors, seeds, tolerance, verbose)


def run_float32_suite(seeds: int = 5, tolerance: float = 1e-2, verbose: bool = False):
    """32-bit gradient accuracy: float32 analytic grads vs float64 analytic.

    Central differences are useless in float32 (the per-coordinate
    perturbation of a summed loss sits below the loss's own rounding), so
    the float64 gradients validated by `run_primitive_suite` serve as the
    reference instead.
    """

    def leaf_grads(case, seed, dtype):
        with precision(dtype):
            loss, leaves = _build(case, seed)
            loss().backward()
            return [leaf.grad.astype(np.float64) for leaf in leaves]

    def errors(case, seed):
        pairs = zip(leaf_grads(case, seed, np.float32), leaf_grads(case, seed, np.float64))
        return [float((np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-12)).max()) for a, b in pairs]

    return _suite("gradcheck32", errors, seeds, tolerance, verbose)
