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
`local_attention`, per chunk of images, only its softmax weights: its
backward rebuilds the chunk's queries and padded keys and values from
its input with the forward's own GEMMs.

Whether an op records a node decides what it keeps, never how it
computes: every primitive has one forward. An op that records no node
keeps nothing. Three ops may write their result into an input:
`batch_norm`, `relu` and `add` (its first operand) do so when the caller
passes `overwrite=True`, with the same ufuncs in the same order, so the
bytes are those of a fresh result. The grant comes from the caller that
made the array, never from the grad mode alone, and it means that
nothing reads the array's values again: neither a later forward op nor
the backward of the op that made it. `grad_check` evaluates its function
under `no_grad` on its own leaves, and a block's input is also its
shortcut and a tap, so the models grant it only for arrays their own
layers made. With no node recorded all three ops honour it. While
recording, `relu` and `add` honour it only when the array is a recorded
op's output, never a leaf, and `batch_norm` never does, because its
backward reads its input; so a block's graph holds one array for bn ->
relu and one for bn -> add -> relu. `conv2d` runs one loop over chunks
of images whatever the mode: a recorded call's one chunk is the whole
batch, whose column matrix it keeps; any other call builds a column
matrix for as many images as fit `_COLS_BUDGET` (512 KiB, at least one
image) in a reused buffer. `local_attention` chunks both passes by the
same budget, so an unrecorded call holds one chunk's maps per thread.

The graph is single-use. As `backward()` passes each node's gradient on
to its parents, it drops that node's closure and parents, so what the
closure kept (im2col columns, softmax weights)
and every activation no later closure reads are freed while the pass
runs, not when it returns. A second `backward()` through a consumed node
raises `ContractError`. Once the caller drops its last reference to the
loss and to the forward's outputs, nothing of the step is left.

Thread contract: tensors are plain arrays, safe to share for read-only
evaluation; recording state (grad mode, default dtype) is thread-local,
and gradient accumulation belongs to the single training thread. Two
ops run the second half of their work in one other thread (`_halves`;
none with one CPU): `conv2d` its images and its weight | input
gradients, and `local_attention` its chunks of images and its weight |
input gradient GEMMs. Attention's chunks split whenever there are two or
more; any other call splits only when each thread's share, counted from
the op's shapes, comes to `_SPLIT_MACS` (2^25) multiply-adds, so the toy
models' convolutions and gradient GEMMs run inline. That thread calls
numpy alone, never a Tensor op, with the inline call's operands; every
reduction stays within one image, chunk or task, and BLAS runs under a
fixed thread configuration, so the bytes are the same at one and at two
CPUs.
"""

from __future__ import annotations

import os
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "__weakref__")

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
        return _record(self.data, (), None)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # --- autodiff driver ---

    def backward(self):
        """Populate grads of all requires_grad ancestors of a scalar,
        consuming the graph: each node is released once its gradient has
        been passed on (see the memory contract)."""
        if self.size != 1:
            raise ContractError(f"backward() needs a scalar, got shape {self.shape}")
        order = topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()  # the list drops its reference as the pass goes
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
            node.grad, node._parents, node._backward_fn = None, (), _consumed

    # --- operator sugar ---

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, scale(other, -1.0))


def _consumed(g):
    raise ContractError("graph already consumed by backward()")


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


def _records(parents) -> bool:
    """Whether an op on `parents` records a node."""
    return _grad_enabled() and any(p.requires_grad for p in parents)


def _scratch(a: Tensor, parents, overwrite: bool):
    """`a`'s array when a granted `relu` or `add` may write its result there,
    else None: with no node recorded, or into a recorded op's output (never a
    leaf), since the grant means no backward reads that array's values."""
    return a.data if overwrite and (a._backward_fn is not None or not _records(parents)) else None


def _record(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._backward_fn = None
    out.requires_grad = False
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# --- elementwise ---


def add(a: Tensor, b, overwrite: bool = False) -> Tensor:
    """a + b; with `overwrite` (see the memory contract) into a's array."""
    if not isinstance(b, Tensor):
        b = Tensor(b, dtype=a.data.dtype)
    data = np.add(a.data, b.data, out=_scratch(a, (a, b), overwrite))

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
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

    def bw(g):
        return (g * (p * np.abs(a.data) ** (p - 1) * np.sign(a.data)),)

    return _record(np.abs(a.data) ** p, (a,), bw)


def relu(a: Tensor, overwrite: bool = False) -> Tensor:
    """max(a, 0) as a * (a > 0); with `overwrite` (see the memory contract) into a's array."""
    out = np.multiply(a.data, a.data > 0, out=_scratch(a, (a,), overwrite))
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


def tmean(a: Tensor) -> Tensor:
    """The mean of every entry, as a 0-d tensor."""
    inv = a.data.dtype.type(1.0 / a.size)
    return _record(np.asarray(a.data.mean()), (a,), lambda g: (np.broadcast_to(g * inv, a.shape).copy(),))


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


# --- two threads ---


_TWO_CPUS = len(os.sched_getaffinity(0)) > 1 if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1) > 1
# multiply-adds each thread's share needs before a call splits. Splitting the toy models'
# work at B=100 (shares up to 2e7, the largest two attention gradient GEMMs) made their
# steps slower; at B=8 every teacher50/student26 share but the stem's and one conv's is larger
_SPLIT_MACS = 1 << 25


def _halves(n: int, fn, macs=None):
    """Call `fn` on a slice of the first half of `range(n)` here and of the second in one other
    thread, both ending before this does and the second's exception re-raised here; inline with
    one CPU, or when the second half's `macs` (one item's multiply-adds) fall short of `_SPLIT_MACS`."""
    cut = (n + 1) // 2 if _TWO_CPUS and (macs is None or n // 2 * macs >= _SPLIT_MACS) else n
    if cut == n:
        return fn(slice(0, n))
    failed = []

    def second():
        try:
            fn(slice(cut, n))
        except BaseException as e:  # handed to the calling thread, which raises it
            failed.append(e)

    worker = threading.Thread(target=second)
    worker.start()
    try:
        fn(slice(0, cut))
    finally:
        worker.join()
    if failed:
        raise failed[0]


def _map_halves(fn, items, macs):
    """`[fn(item) for item in items]`, the items split between two threads (`_halves`)
    when each call is `macs` multiply-adds."""
    results = list(items)

    def run(part):
        results[part] = [fn(item) for item in items[part]]

    _halves(len(items), run, macs)
    return results


# --- convolution and pooling ---


_COLS_BUDGET = 512 << 10  # bytes of an unrecorded conv's column matrix, or of one attention chunk's map


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, cols: np.ndarray):
    """Write the (B, cin*kh*kw, ho*wo) column matrix of the zero-padded NCHW `xp` into `cols`."""
    B, cin, hp, wp = xp.shape
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    blocks = cols.reshape(B, cin, kh, kw, ho, wo)
    for di in range(kh):
        for dj in range(kw):
            blocks[:, :, di, dj] = xp[:, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
    return cols


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0, live=None) -> Tensor:
    """Cross-correlation of NCHW input with OIHW weights, zero padding.

    Forward is one loop over chunks of images: the chunk's im2col, then
    one BLAS GEMM per image straight into the output, so every image runs
    the same GEMM on the same operands whatever the chunk. An unpadded
    1x1 stride-1 kernel's column matrix is its input, read as a view, in
    one chunk. A recorded call also takes the whole batch as one chunk and
    keeps that column matrix for the weight gradient, so only a 1x1
    stride-1 op keeps no copy of its input. Any other call chunks by
    `_COLS_BUDGET` (see the memory contract). The weight gradient is one
    BLAS GEMM per image, `g[b] @ cols[b].T` into one reused buffer, summed
    over the batch into a float64 accumulator and rounded once to the
    gradient's dtype. With the float64 sum the result does not depend on
    the order the images are added in, and its error is that of one
    float32 contraction over the batch. The input gradient is skipped
    when the input does not require grad (the stem). Above `_SPLIT_MACS` (see the thread contract) each
    half of the images runs the loop in its own thread, into its own rows
    of a kept column matrix or its own buffer, and the weight gradient
    runs, in image order, beside the input gradient.

    `live` = (indices, weight matrix on them) multiplies only those columns
    of the (C_out, C_in*kh*kw) weight matrix, the others being zero: the
    live rows of each chunk's column matrix are gathered, each image's
    into one contiguous block. It is refused while a graph is recorded.
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
    rows, dtype = cin * kh * kw, x.data.dtype
    if live is not None:
        _contract(not _grad_enabled(), "conv2d reads only live columns when no graph is recorded")
    wmat = w.data.reshape(cout, rows) if live is None else live[1]
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    out = np.empty((B, cout, ho * wo), dtype=dtype)
    keep = _records((x, w))
    n = B if keep or (pointwise and live is None) else max(1, _COLS_BUDGET // (rows * ho * wo * dtype.itemsize))
    cols = x.data.reshape(B, rows, -1) if pointwise else np.empty((B, rows, ho * wo), dtype=dtype) if keep else None

    def forward_images(part):
        size = min(n, part.stop - part.start)
        buf = cols[part] if cols is not None else np.empty((size, rows, ho * wo), dtype=dtype)
        for b0 in range(part.start, part.stop, n):
            xb = xp[b0 : min(b0 + n, part.stop)]
            cols2 = xb.reshape(len(xb), rows, -1) if pointwise else _im2col(xb, kh, kw, stride, buf[: len(xb)])
            if live is not None:
                cols2 = np.take(cols2, live[0], axis=1)
            np.matmul(wmat[None], cols2, out=out[b0 : b0 + len(xb)])

    _halves(B, forward_images, wmat.size * ho * wo)
    out = out.reshape(B, cout, ho, wo)

    def weight_grad(g2):
        dw64, buf = np.zeros(wmat.shape, dtype=np.float64), np.empty(wmat.shape, dtype=g2.dtype)
        for b in range(B):
            dw64 += np.matmul(g2[b], cols[b].T, out=buf)
        return dw64.astype(g2.dtype).reshape(w.shape)

    def input_grad(g2):
        dcols = np.matmul(wmat.T[None], g2)
        if pointwise:
            dcols += 0.0  # -0.0 becomes +0.0, as in the zero-filled scatter below
            return dcols.reshape(x.shape)
        dcols = dcols.reshape(B, cin, kh, kw, ho, wo)
        dxp = np.zeros((B, cin, H + 2 * pad, W + 2 * pad), dtype=x.data.dtype)
        for di in range(kh):
            for dj in range(kw):
                dxp[:, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride] += dcols[:, :, di, dj]
        return dxp[:, :, pad : pad + H, pad : pad + W] if pad else dxp

    def bw(g):
        g2 = g.reshape(B, cout, ho * wo)
        if not x.requires_grad:
            return None, weight_grad(g2)
        dw, dx = _map_halves(lambda grad: grad(g2), [weight_grad, input_grad], B * wmat.size * ho * wo)
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


_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, overwrite: bool = False) -> Tensor:
    """Batch normalization of an NCHW map over (B, H, W) per channel.

    Training mode normalizes with batch statistics and updates the running
    buffers in place with an exponential moving average of momentum 0.1
    (unbiased variance for the buffer, biased for normalization). Eval mode
    uses the buffers. Both add 1e-5 to the variance.

    The variance is np.var's arithmetic (mean of the squared centred copy)
    on the centred copy that is then normalized, scaled and shifted in
    place into the output. The op keeps only the per-channel mean and
    inverse deviation: the backward rebuilds the normalized input from
    `x` with the forward's two operations. With `overwrite` and no node
    recorded (see the memory contract) the centred copy is x's array
    itself.
    """
    axes, cshape = (0, 2, 3), (1, -1, 1, 1)
    n = x.size // x.shape[1]
    into = x.data if overwrite and not _records((x, gamma, beta)) else None  # the backward reads x
    if training:
        mean = x.data.mean(axis=axes)
        out = np.subtract(x.data, mean.reshape(cshape), out=into)
        var = np.square(out).mean(axis=axes)
        running_mean *= 1.0 - _BN_MOMENTUM
        running_mean += _BN_MOMENTUM * mean
        bessel = n / max(n - 1, 1)
        running_var *= 1.0 - _BN_MOMENTUM
        running_var += _BN_MOMENTUM * var * bessel
    else:
        mean = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)
        out = np.subtract(x.data, mean.reshape(cshape), out=into)
    inv_std = (1.0 / np.sqrt(var + _BN_EPS)).astype(x.data.dtype).reshape(cshape)
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
                    content_scale: float, position_scale: float, live=None) -> Tensor:
    """Multi-head k x k local self-attention of an NCHW map, one graph node.

    x is (B, c_in, H, W); w_q, w_k, w_v are (c_in, c_out); rel_pos is
    (heads, 2k-1, 2k-1, c_out/heads), of which the central k x k band is
    used. Logits are content_scale * q.k + position_scale * q.r per head and
    neighbor offset; out-of-image slots get an exactly-zero softmax weight.
    Returns the (B, c_out, H, W) output. `live`, one (input channels,
    (c_out, n) weight matrix on them) pair per projection in q, k, v
    order, projects only those channels, the others' weight rows being
    zero; it is refused while a graph is recorded.

    Both passes run a chunk of images at a time: as many as one
    (c_out, H, W) map each fits in `_COLS_BUDGET` (at least one), in an
    even number of near-equal chunks when B allows, so a chunk's maps stay
    in cache. Per chunk the arithmetic is that of a channel-major
    (heads, c, H, W, b) formulation: q, k and v by one BLAS GEMM each, on
    the live channels when `live` is given, keys and values zero-padded by
    k//2, and a loop over the k*k offsets in which each neighbor is a
    shifted slice of the padded maps held images-innermost, so no
    neighborhood is materialized and every slice is made of contiguous
    rows of W*b values. A recorded node keeps only each chunk's softmax
    weights. The backward rebuilds each chunk's queries and padded keys
    and values from x with the forward's own helper, so with the
    forward's bytes, then runs both offset loops, the softmax backward,
    the `dq` band GEMM, one `dband` GEMM per image and the chunk's columns of the (3 c_out, B*H*W) q/k/v
    gradient `d`; after the loop the weight | input gradients `x_T @ d.T`
    and `W_all @ d` run as one GEMM each (see the thread contract). Chunks
    depend only on the shapes, so the bytes do not depend on the CPU
    count; they equal the whole batch's where BLAS gives a GEMM's columns
    the same bytes whatever their count, as at every model shape here.
    """
    B, c_in, H, W = x.shape
    N, span, _, ch = rel_pos.shape
    c_out = N * ch
    for w in (w_q, w_k, w_v):
        if w.shape != (c_in, c_out):
            raise ShapeError(f"projection {w.shape} does not map {c_in} channels to {c_out}")
    k = (span + 1) // 2
    half, K, HW = k // 2, k * k, H * W
    offsets = [(i, j) for i in range(k) for j in range(k)]  # slice starts in the padded maps
    dtype = x.data.dtype
    sc, sp = dtype.type(content_scale), dtype.type(position_scale)
    if live is None:
        live = [(slice(None), w.data.T) for w in (w_q, w_k, w_v)]
    else:
        _contract(not _grad_enabled(), "local_attention reads only live columns when no graph is recorded")
    n = -(-B // max(1, _COLS_BUDGET // (c_out * HW * dtype.itemsize)))
    n += n % 2 == 1 and 1 < n < B  # an even count splits evenly between the two threads
    bounds, keep = [B * i // n for i in range(n + 1)], _records((x, w_q, w_k, w_v, rel_pos))
    kept, y = [None] * n, np.empty((B, c_out, H, W), dtype=dtype)

    band = rel_pos.data[:, half : half + k, half : half + k].reshape(N, K, ch)
    inside = np.pad(np.ones((H, W, 1), dtype=dtype), ((half, half), (half, half), (0, 0)))
    bias = np.stack([(1 - inside[i : i + H, j : j + W]) * dtype.type(_NEG) for i, j in offsets])

    def project(b0, b1):
        """Images b0:b1's queries and zero-padded keys and values: the forward's, rebuilt by the backward."""
        b = b1 - b0
        xt = _batch_last(x.data[b0:b1]).reshape(c_in, HW * b)
        q, *kv = (np.matmul(wmat, xt[rows]).reshape(N, ch, H, W, b) for rows, wmat in live)
        kvp = np.zeros((2, N, ch, H + 2 * half, W + 2 * half, b), dtype=dtype)
        for padded, proj in zip(kvp, kv):
            padded[..., half : half + H, half : half + W, :] = proj
        return q, kvp

    def forward_chunks(part):
        for c in range(part.start, part.stop):
            b0, b1 = bounds[c], bounds[c + 1]
            b, M = b1 - b0, HW * (b1 - b0)
            q, kvp = project(b0, b1)
            a = np.matmul(band * sp, q.reshape(N, ch, M)).reshape(N, K, H, W, b)  # logits, then weights
            qc, prod, out = q * sc, np.empty_like(q), np.zeros_like(q)
            for o, (i, j) in enumerate(offsets):
                np.multiply(qc, kvp[0, ..., i : i + H, j : j + W, :], out=prod)
                a[:, o] += prod.sum(axis=1)
            a += bias
            if not np.isfinite(a).all():  # the finite bias neither hides nor makes a non-finite logit
                raise NumericError("local_attention logits contain non-finite values")
            a -= a.max(axis=1, keepdims=True)
            np.exp(a, out=a)
            a /= a.sum(axis=1, keepdims=True)
            for o, (i, j) in enumerate(offsets):
                np.multiply(a[:, o, None], kvp[1, ..., i : i + H, j : j + W, :], out=prod)
                out += prod
            y[b0:b1] = out.reshape(c_out, H, W, b).transpose(3, 0, 1, 2)
            if keep:
                kept[c] = a

    _halves(n, forward_chunks)

    def bw(g):
        # q/k/v gradients as one (3 c_out, B*H*W) matrix, batch outermost
        d = np.empty((3, N, ch, B, H, W), dtype=dtype)
        dband = np.empty((B, N, K, ch), dtype=dtype)

        def backward_chunks(part):
            for c in range(part.start, part.stop):
                b0, b1 = bounds[c], bounds[c + 1]
                b, M = b1 - b0, HW * (b1 - b0)
                (q, kvp), a, gh = project(b0, b1), kept[c], _batch_last(g[b0:b1]).reshape(N, ch, H, W, b)
                qc, prod, da, dkvp = q * sc, np.empty_like(q), np.empty_like(a), np.zeros_like(kvp)
                for o, (i, j) in enumerate(offsets):
                    np.multiply(gh, kvp[1, ..., i : i + H, j : j + W, :], out=prod)
                    prod.sum(axis=1, out=da[:, o])
                    np.multiply(a[:, o, None], gh, out=prod)
                    dkvp[1, ..., i : i + H, j : j + W, :] += prod
                dl = a * (da - (da * a).sum(axis=1, keepdims=True))  # softmax backward
                dq = np.matmul(band.transpose(0, 2, 1) * sp, dl.reshape(N, K, M)).reshape(q.shape)
                dqc = np.zeros_like(q)
                for o, (i, j) in enumerate(offsets):
                    dld = dl[:, o, None]
                    np.multiply(dld, kvp[0, ..., i : i + H, j : j + W, :], out=prod)
                    dqc += prod
                    np.multiply(dld, qc, out=prod)
                    dkvp[0, ..., i : i + H, j : j + W, :] += prod
                dq += dqc * sc
                dl_b = np.ascontiguousarray(dl.reshape(N, K, HW, b).transpose(3, 0, 1, 2))
                q_b = np.ascontiguousarray(q.reshape(N, ch, HW, b).transpose(3, 0, 2, 1))
                np.matmul(dl_b, q_b, out=dband[b0:b1])
                d[0, :, :, b0:b1] = dq.transpose(0, 1, 4, 2, 3)
                d[1:, :, :, b0:b1] = dkvp[..., half : half + H, half : half + W, :].transpose(0, 1, 2, 5, 3, 4)

        _halves(n, backward_chunks)
        drel = np.zeros_like(rel_pos.data)
        drel[:, half : half + k, half : half + k] = (dband.sum(axis=0) * sp).reshape(N, k, k, ch)
        d = d.reshape(3 * c_out, B * HW)
        pairs = [(x.data.transpose(1, 0, 2, 3).reshape(c_in, B * HW), d.T)]  # dw, then dx
        if x.requires_grad:
            pairs.append((np.concatenate([w_q.data, w_k.data, w_v.data], axis=1), d))
        dw, *dx = _map_halves(lambda ab: ab[0] @ ab[1], pairs, d.size * c_in)
        dx = np.ascontiguousarray(dx[0].reshape(c_in, B, H, W).transpose(1, 0, 2, 3)) if dx else None
        dw_q, dw_k, dw_v = (np.ascontiguousarray(part) for part in np.split(dw, 3, axis=1))
        return dx, dw_q, dw_k, dw_v, drel

    return _record(y, (x, w_q, w_k, w_v, rel_pos), bw)


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
        worst = float(np.maximum(worst, err))  # a NaN error stays NaN; max() would drop it
    return worst
