"""Dense float tensors with define-by-run reverse-mode autodiff.

Every operation records its inputs and a backward closure on the output
tensor, so each forward pass rebuilds the graph from scratch (masks and
branches may change between steps). `Tensor.backward()` walks the recorded
graph once, in reverse topological order, and accumulates gradients into
every `requires_grad` leaf.

Training runs in float32. Gradient checking switches the default dtype to
float64 via the `precision` context manager.

Memory contract: a recorded op keeps only the arrays its backward closure
reads, and recomputes anything else there with the forward's own
operations, so results do not change. Inputs and outputs cost nothing
extra, since the graph holds them anyway: `relu` keeps its output rather
than a mask, `abspow` recomputes the magnitude from its input, a 1x1
stride-1 `conv2d` reads its input as the column matrix, and `batch_norm`
rebuilds its normalized input from `x` and two per-channel vectors.
Beyond inputs and outputs, any other `conv2d` keeps its im2col copy and
`local_attention` its queries, padded keys and values and softmax
weights. So an activation is read-only once an op has recorded it:
writing into a recorded input or output in place would change the
gradients computed from it.

Thread contract: tensors are plain arrays, safe to share for read-only
evaluation; recording state (grad mode, default dtype) is thread-local,
and gradient accumulation belongs to the single training thread. No
operator parallelism is used beyond whatever BLAS does under a fixed
thread configuration, so forward results are bitwise reproducible.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


def default_dtype():
    return getattr(_state, "dtype", np.float32)


@contextmanager
def no_grad():
    """Disable graph recording (teacher forward passes, evaluation)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


@contextmanager
def precision(dtype):
    """Temporarily change the default dtype for newly created tensors."""
    prev = default_dtype()
    _state.dtype = np.dtype(dtype).type
    try:
        yield
    finally:
        _state.dtype = prev


class Tensor:
    """N-dimensional float array with an optional gradient buffer.

    The shape is fixed at construction. `data` may be mutated in place by
    optimizers between graph recordings; the recorded graph holds the
    references it needs for backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or default_dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None

    # --- structural properties ---

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
        return out

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # --- autodiff driver ---

    def backward(self):
        """Populate grads of all requires_grad ancestors of a scalar."""
        if self.size != 1:
            raise ContractError(f"backward() needs a scalar, got shape {self.shape}")
        order = topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is None:
                continue
            grads = node._backward_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g  # may alias g; only ever rebound, never mutated
                else:
                    parent.grad = parent.grad + g
            node.grad = None  # intermediate grads are not needed past this point

    # --- operator sugar ---

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scale(other, -1.0))
        return add(self, -other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return scale(self, 1.0 / other)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def topo_order(root: Tensor):
    """Recorded nodes reachable from `root`, inputs before consumers."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _contract(cond: bool, msg: str):
    if not cond:
        raise ContractError(msg)
    return None


def _record(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._backward_fn = None
    out.requires_grad = False
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# --- elementwise ---


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        out = a.data + np.asarray(b, dtype=a.data.dtype)
        return _record(out, (a,), lambda g: (_unbroadcast(g, a.shape),))
    data = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return scale(a, float(b))
    data = a.data * b.data

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(data, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return _record(a.data * s, (a,), lambda g: (g * s,))


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record(data, (a, b), bw)


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)

    def bw(g):
        return (g * (0.5 / root),)

    return _record(root, (a,), bw)


def abspow(a: Tensor, p: float) -> Tensor:
    """|x| ** p with p >= 1; subgradient 0 at the origin."""
    _contract(p >= 1, f"abspow exponent must be >= 1, got {p}")
    mag = np.abs(a.data)
    data = mag if p == 1 else mag**p

    def bw(g):
        if p == 1:
            return (g * np.sign(a.data),)
        return (g * (p * np.abs(a.data) ** (p - 1) * np.sign(a.data)),)

    return _record(data, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = a.data * (a.data > 0)
    # out > 0 equals a > 0 for every input, -0.0, NaN and +-inf included
    return _record(out, (a,), lambda g: (g * (out > 0),))


# --- reductions ---


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(np.asarray(data), (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    inv = a.data.dtype.type(1.0 / count)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g * inv, a.shape).copy(),)

    return _record(np.asarray(data), (a,), bw)


# --- shape ---


def reshape(a: Tensor, shape) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from e
    return _record(data, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _record(
        np.ascontiguousarray(a.data.transpose(axes)),
        (a,),
        lambda g: (g.transpose(inv),),
    )


def concat(tensors, axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _record(data, tuple(tensors), bw)


# --- indexing ---


def gather(a: Tensor, idx, axis: int) -> Tensor:
    """Take rows along `axis` by a 1-D index; scatter-adds the gradient back."""
    idx = np.asarray(idx)
    _contract(idx.ndim == 1, "gather index must be 1-D")
    data = np.take(a.data, idx, axis=axis)

    def bw(g):
        da = np.zeros_like(a.data)
        np.add.at(np.moveaxis(da, axis, 0), idx, np.moveaxis(g, axis, 0))
        return (da,)

    return _record(data, (a,), bw)


# --- linear algebra ---


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _record(data, (a, b), bw)


# --- softmax family ---


def softmax(a: Tensor, axis: int) -> Tensor:
    if not np.isfinite(a.data).all():
        raise NumericError("softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(y, (a,), bw)


def log_softmax(a: Tensor, axis: int) -> Tensor:
    if not np.isfinite(a.data).all():
        raise NumericError("log_softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def bw(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _record(y, (a,), bw)


# --- convolution and pooling ---


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with OIHW weights, zero padding.

    Forward is im2col plus one batched GEMM. A 1x1 stride-1 unpadded
    input already is its column matrix, so it is read as a view and the
    op keeps no copy of it; every other shape keeps its im2col copy for
    the weight gradient. The weight gradient is one BLAS GEMM per image,
    `g[b] @ cols[b].T`, summed over the batch into a float64 accumulator
    and rounded once to the gradient's dtype. With the float64 sum the
    result does not depend on the order the images are added in, and its
    error is that of one float32 contraction over the batch. The input
    gradient is skipped when the input does not require grad (the stem).
    """
    B, cin, H, W = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}, kernel {kh}")
    pointwise = kh == kw == 1 and stride == 1 and pad == 0
    if pointwise:
        cols2 = x.data.reshape(B, cin, H * W)
    else:
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
        cols = np.empty((B, cin, kh, kw, ho, wo), dtype=x.data.dtype)
        for di in range(kh):
            for dj in range(kw):
                cols[:, :, di, dj] = xp[:, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
        cols2 = cols.reshape(B, cin * kh * kw, ho * wo)
    wmat = w.data.reshape(cout, cin * kh * kw)
    out = np.matmul(wmat[None], cols2).reshape(B, cout, ho, wo)

    def bw(g):
        g2 = g.reshape(B, cout, ho * wo)
        dw64 = np.zeros(wmat.shape, dtype=np.float64)
        for b in range(B):
            dw64 += g2[b] @ cols2[b].T
        dw = dw64.astype(g2.dtype).reshape(w.shape)
        if not x.requires_grad:
            return None, dw
        dcols = np.matmul(wmat.T[None], g2)
        if pointwise:
            dcols += 0.0  # -0.0 becomes +0.0, as in the zero-filled scatter below
            return dcols.reshape(x.shape), dw
        dcols = dcols.reshape(B, cin, kh, kw, ho, wo)
        dxp = np.zeros((B, cin, H + 2 * pad, W + 2 * pad), dtype=x.data.dtype)
        for di in range(kh):
            for dj in range(kw):
                dxp[:, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride] += dcols[:, :, di, dj]
        dx = dxp[:, :, pad : pad + H, pad : pad + W] if pad else dxp
        return dx, dw

    return _record(out, (x, w), bw)


def avg_pool2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 mean pooling; spatial dims must be even."""
    B, C, H, W = x.shape
    _contract(H % 2 == 0 and W % 2 == 0, f"avg_pool2 needs even spatial dims, got {H}x{W}")
    # Adding each row's pair first, then the two rows, reproduces
    # reshape(...).mean(axis=(3, 5)) bit for bit when W >= 4; a sequential
    # sum and adding column pairs first do not. At W == 2 numpy's mean adds
    # the four values in sequence, so the last bit can differ there; the
    # models see 32x32 images and pool no map narrower than 8.
    a = x.data
    top = a[:, :, 0::2, 0::2] + a[:, :, 0::2, 1::2]
    bottom = a[:, :, 1::2, 0::2] + a[:, :, 1::2, 1::2]
    data = (top + bottom) * a.dtype.type(0.25)

    def bw(g):
        spread = np.broadcast_to(
            g[:, :, :, None, :, None] * x.data.dtype.type(0.25),
            (B, C, H // 2, 2, W // 2, 2),
        )
        return (spread.reshape(B, C, H, W).copy(),)

    return _record(data, (x,), bw)


def global_avg_pool(x: Tensor) -> Tensor:
    B, C, H, W = x.shape
    data = x.data.mean(axis=(2, 3))
    inv = x.data.dtype.type(1.0 / (H * W))

    def bw(g):
        return (np.broadcast_to(g[:, :, None, None] * inv, x.shape).copy(),)

    return _record(data, (x,), bw)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (B,) or (B, H, W) per channel.

    Training mode normalizes with batch statistics and updates the running
    buffers in place with an exponential moving average (unbiased variance
    for the buffer, biased for normalization). Eval mode uses the buffers.

    The variance is np.var's arithmetic (mean of the squared centred copy)
    on the centred copy that is then normalized, scaled and shifted in
    place into the output. The op keeps only the per-channel mean and
    inverse deviation: the backward rebuilds the normalized input from
    `x` with the forward's two operations.
    """
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    cshape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    n = x.size // x.shape[1]
    if training:
        mean = x.data.mean(axis=axes)
        out = x.data - mean.reshape(cshape)
        var = np.square(out).mean(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        bessel = n / max(n - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * var * bessel
    else:
        mean = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)
        out = x.data - mean.reshape(cshape)
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.data.dtype).reshape(cshape)
    mean = mean.reshape(cshape)
    out *= inv_std
    out *= gamma.data.reshape(cshape)
    out += beta.data.reshape(cshape)

    def bw(g):
        xhat = x.data - mean
        xhat *= inv_std
        tmp = g * xhat
        dgamma = tmp.sum(axis=axes)
        dbeta = g.sum(axis=axes)
        dx = g * gamma.data.reshape(cshape)
        if training:
            m1 = dx.mean(axis=axes, keepdims=True)
            m2 = np.multiply(dx, xhat, out=tmp).mean(axis=axes, keepdims=True)
            dx -= m1
            xhat *= m2
            dx -= xhat
        dx *= inv_std
        return dx, dgamma, dbeta

    return _record(out, (x, gamma, beta), bw)


# --- windowed attention primitives ---

# window_gather, nbhd_dot, relpos_dot and nbhd_mix are the unfused form of
# `local_attention`. Training never calls them; the gradient suite and the
# tests do, and the benchmark's tracer (perfbench/probe.py) wraps each of
# these names, so they stay until it stops doing so.


def window_gather(x: Tensor, k: int) -> Tensor:
    """Gather the k x k neighborhood of every pixel of a BHWC map.

    Output is (B, H, W, k*k, C); slots whose source pixel falls outside the
    image are exactly zero. The gradient scatter-adds each window offset
    back as a shifted slice.
    """
    _contract(k % 2 == 1, f"window extent must be odd, got {k}")
    B, H, W, C = x.shape
    half = k // 2
    out = np.zeros((B, H, W, k * k, C), dtype=x.data.dtype)
    spans = []
    for d, (di, dj) in enumerate((a, b) for a in range(-half, half + 1) for b in range(-half, half + 1)):
        i0, i1 = max(0, -di), H - max(0, di)
        j0, j1 = max(0, -dj), W - max(0, dj)
        spans.append((d, i0, i1, j0, j1, di, dj))
        out[:, i0:i1, j0:j1, d] = x.data[:, i0 + di : i1 + di, j0 + dj : j1 + dj]

    def bw(g):
        dx = np.zeros_like(x.data)
        for d, i0, i1, j0, j1, di, dj in spans:
            dx[:, i0 + di : i1 + di, j0 + dj : j1 + dj] += g[:, i0:i1, j0:j1, d]
        return (dx,)

    return _record(out, (x,), bw)


def window_validity(h: int, w: int, k: int) -> np.ndarray:
    """Boolean (H*W, k*k) mask of in-bounds neighborhood slots."""
    half = k // 2
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    valid = np.empty((h * w, k * k), dtype=bool)
    d = 0
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            ok = (ii + di >= 0) & (ii + di < h) & (jj + dj >= 0) & (jj + dj < w)
            valid[:, d] = ok.reshape(-1)
            d += 1
    return valid


def nbhd_dot(q: Tensor, kn: Tensor) -> Tensor:
    """Per-head query/key logits: (B,P,N,c) x (B,P,N,K,c) -> (B,P,N,K).

    Contractions run as batched matmuls over the (B,P,N) axes, which is
    several times faster than the equivalent einsum here.
    """
    data = np.matmul(kn.data, q.data[..., None])[..., 0]

    def bw(g):
        dq = np.matmul(g[:, :, :, None, :], kn.data)[:, :, :, 0, :]
        dk = g[..., None] * q.data[:, :, :, None, :]
        return dq, dk

    return _record(data, (q, kn), bw)


def relpos_dot(q: Tensor, r: Tensor) -> Tensor:
    """Query/position logits: (B,P,N,c) x (N,K,c) -> (B,P,N,K)."""
    rt = np.ascontiguousarray(r.data.transpose(0, 2, 1))  # (N,c,K)
    data = np.matmul(q.data[:, :, :, None, :], rt[None, None])[:, :, :, 0, :]

    def bw(g):
        dq = np.matmul(g[:, :, :, None, :], r.data[None, None])[:, :, :, 0, :]
        b, p, n, c = q.shape
        g2 = g.reshape(b * p, n, -1)  # (BP,N,K)
        q2 = q.data.reshape(b * p, n, c)
        dr = np.matmul(g2.transpose(1, 2, 0), q2.transpose(1, 0, 2))  # (N,K,c)
        return dq, dr

    return _record(data, (q, r), bw)


def nbhd_mix(w: Tensor, vn: Tensor) -> Tensor:
    """Attention-weighted value mix: (B,P,N,K) x (B,P,N,K,c) -> (B,P,N,c)."""
    data = np.matmul(w.data[:, :, :, None, :], vn.data)[:, :, :, 0, :]

    def bw(g):
        dw = np.matmul(vn.data, g[..., None])[..., 0]
        dv = w.data[..., None] * g[:, :, :, None, :]
        return dw, dv

    return _record(data, (w, vn), bw)


_NEG = -1e9  # logit bias of out-of-image slots: exp underflows to exactly 0


def _batch_last(a: np.ndarray) -> np.ndarray:
    """Contiguous (B, ...) -> (..., B) copy that does not depend on cache luck.

    Copied directly, the reads step through `a` by one image, C*H*W values:
    a power of two at every model width, so the B rows in flight share one
    cache set and, depending on how the pages land physically, the copy
    runs up to 30x slower from one call to the next. Staging the rows in a
    buffer whose row length is an odd number of cache lines spreads them
    over all sets; the extra contiguous copy costs far less.
    """
    B = a.shape[0]
    R = a.size // B
    line = 64 // a.itemsize
    lines = -(-R // line) | 1  # rows of whole cache lines, an odd count of them
    staged = np.empty((B, lines * line), dtype=a.dtype)
    staged[:, :R] = a.reshape(B, R)
    return staged[:, :R].T.copy().reshape(a.shape[1:] + (B,))


def local_attention(x: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor, rel_pos: Tensor,
                    content_scale: float, pos_scale: float, return_weights: bool = False):
    """Multi-head k x k local self-attention of an NCHW map, one graph node.

    x is (B, c_in, H, W); w_q, w_k, w_v are (c_in, c_out); rel_pos is
    (heads, 2k-1, 2k-1, c_out/heads), of which the central k x k band is
    used. Logits are content_scale * q.k + pos_scale * q.r per head and
    neighbor offset; out-of-image slots get an exactly-zero softmax weight.
    Returns the (B, c_out, H, W) output, plus the (B, H*W, heads, k*k)
    weights as a constant tensor when `return_weights` is set.

    The arithmetic is that of a channel-major (B, heads, c, H, W)
    formulation: projections by BLAS, keys and values zero-padded by k//2,
    and a loop over the k*k offsets in which each neighbor is a shifted
    slice of the padded maps, so no (B, H*W, k*k, c) neighborhood is
    materialized. The elementwise loops hold their maps batch-innermost,
    (heads, c, H, W, B), so every shifted slice is made of contiguous rows
    of W*B values rather than W (4 on the smallest maps); the gradient
    GEMMs that sum over the batch take it outermost, in image order. The
    node keeps the queries, the padded keys and values and the softmax
    weights; the backward recomputes the scaled queries and the stacked
    projection matrix and allocates its own scratch.
    """
    B, c_in, H, W = x.shape
    N, span, _, ch = rel_pos.shape
    c_out = N * ch
    for w in (w_q, w_k, w_v):
        if w.shape != (c_in, c_out):
            raise ShapeError(f"projection {w.shape} does not map {c_in} channels to {c_out}")
    k = (span + 1) // 2
    half, K, M = k // 2, k * k, H * W * B
    offsets = [(i, j) for i in range(k) for j in range(k)]  # slice starts in the padded maps
    dtype = x.data.dtype
    sc, sp = dtype.type(content_scale), dtype.type(pos_scale)

    xt = _batch_last(x.data).reshape(c_in, M)
    w_all = np.concatenate([w_q.data, w_k.data, w_v.data], axis=1)  # (c_in, 3 c_out)
    qkv = w_all.T @ xt
    q = qkv[:c_out].reshape(N, ch, H, W, B).copy()  # the graph keeps q, not all of qkv
    qc = q * sc
    kvp = np.zeros((2, N, ch, H + 2 * half, W + 2 * half, B), dtype=dtype)
    kvp[..., half : half + H, half : half + W, :] = qkv[c_out:].reshape(2, N, ch, H, W, B)

    band = rel_pos.data[:, half : half + k, half : half + k].reshape(N, K, ch)
    logits = np.matmul(band * sp, q.reshape(N, ch, M)).reshape(N, K, H, W, B)
    prod = np.empty_like(q)
    for d, (i, j) in enumerate(offsets):
        np.multiply(qc, kvp[0, ..., i : i + H, j : j + W, :], out=prod)
        logits[:, d] += prod.sum(axis=1)
    inside = np.zeros((H + 2 * half, W + 2 * half, 1), dtype=dtype)
    inside[half : half + H, half : half + W] = 1
    logits += np.stack([(1 - inside[i : i + H, j : j + W]) * dtype.type(_NEG) for i, j in offsets])
    if not np.isfinite(logits).all():  # the finite bias neither hides nor makes a non-finite logit
        raise NumericError("local_attention logits contain non-finite values")
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits, out=logits)
    a /= a.sum(axis=1, keepdims=True)  # (N, K, H, W, B)

    out = np.zeros_like(q)
    for d, (i, j) in enumerate(offsets):
        np.multiply(a[:, d, None], kvp[1, ..., i : i + H, j : j + W, :], out=prod)
        out += prod

    def bw(g):
        gh = _batch_last(g).reshape(N, ch, H, W, B)
        qc = q * sc
        prod = np.empty_like(q)
        da = np.empty_like(a)
        dkvp = np.zeros_like(kvp)
        for d, (i, j) in enumerate(offsets):
            np.multiply(gh, kvp[1, ..., i : i + H, j : j + W, :], out=prod)
            prod.sum(axis=1, out=da[:, d])
            np.multiply(a[:, d, None], gh, out=prod)
            dkvp[1, ..., i : i + H, j : j + W, :] += prod
        dl = a * (da - (da * a).sum(axis=1, keepdims=True))  # softmax backward
        dl_flat = dl.reshape(N, K, M)
        dq = np.matmul(band.transpose(0, 2, 1) * sp, dl_flat).reshape(N, ch, H, W, B)
        dqc = np.zeros_like(q)
        for d, (i, j) in enumerate(offsets):
            dld = dl[:, d, None]
            np.multiply(dld, kvp[0, ..., i : i + H, j : j + W, :], out=prod)
            dqc += prod
            np.multiply(dld, qc, out=prod)
            dkvp[0, ..., i : i + H, j : j + W, :] += prod
        dq += dqc * sc
        dl_b = np.ascontiguousarray(dl.reshape(N, K, H * W, B).transpose(3, 0, 1, 2))
        q_b = np.ascontiguousarray(q.reshape(N, ch, H * W, B).transpose(3, 0, 2, 1))
        dband = np.matmul(dl_b, q_b).sum(axis=0) * sp
        drel = np.zeros_like(rel_pos.data)
        drel[:, half : half + k, half : half + k] = dband.reshape(N, k, k, ch)

        # q/k/v gradients as one (3 c_out, B*H*W) matrix, batch outermost
        d = np.empty((3, N, ch, B, H, W), dtype=dtype)
        d[0] = dq.transpose(0, 1, 4, 2, 3)
        d[1:] = dkvp[..., half : half + H, half : half + W, :].transpose(0, 1, 2, 5, 3, 4)
        d = d.reshape(3 * c_out, B * H * W)
        dx = None
        if x.requires_grad:
            w_all = np.concatenate([w_q.data, w_k.data, w_v.data], axis=1)
            dx = np.ascontiguousarray((w_all @ d).reshape(c_in, B, H, W).transpose(1, 0, 2, 3))
        dw = x.data.transpose(1, 0, 2, 3).reshape(c_in, B * H * W) @ d.T
        dw_q, dw_k, dw_v = (np.ascontiguousarray(part) for part in np.split(dw, 3, axis=1))
        return dx, dw_q, dw_k, dw_v, drel

    y = np.ascontiguousarray(out.reshape(c_out, H, W, B).transpose(3, 0, 1, 2))
    y = _record(y, (x, w_q, w_k, w_v, rel_pos), bw)
    if return_weights:
        return y, Tensor(a.transpose(4, 2, 3, 0, 1).reshape(B, H * W, N, K))
    return y


# --- gradient checking ---


def grad_check(f, theta: Tensor, eps: float = 1e-5, coords: int = 20, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` is a zero-argument callable that re-records the scalar loss from the
    current contents of `theta.data`. At most `coords` coordinates are
    sampled (all of them when the tensor is small). Meant to run under
    `precision(np.float64)`.
    """
    _contract(theta.requires_grad, "grad_check target must require grad")
    rng = rng or np.random.default_rng(0)
    loss = f()
    _contract(loss.size == 1, "grad_check needs a scalar-valued computation")
    theta.zero_grad()
    loss.backward()
    _contract(theta.grad is not None, "loss does not depend on the checked tensor")
    analytic = theta.grad.copy()

    flat = theta.data.reshape(-1)
    n = flat.size
    picks = np.arange(n) if n <= coords else rng.choice(n, size=coords, replace=False)
    worst = 0.0
    for i in picks:
        orig = flat[i]
        flat[i] = orig + eps
        with no_grad():
            hi = float(f().data.reshape(-1)[0])
        flat[i] = orig - eps
        with no_grad():
            lo = float(f().data.reshape(-1)[0])
        flat[i] = orig
        numeric = (hi - lo) / (2 * eps)
        a = float(analytic.reshape(-1)[i])
        err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
        worst = max(worst, err)
    return worst
