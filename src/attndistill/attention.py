"""Local multi-head self-attention over k x k pixel neighborhoods.

Each output pixel attends to its spatial neighborhood through projected
queries, keys, and values plus a learned relative-position table indexed by
the neighbor offset. The content logit is scaled by 1/sqrt(c_out) and the
positional logit by 1/c_out**0.25 (switchable to 1/sqrt(c_out) for
ablation). Out-of-image neighborhood slots are excluded from the softmax,
so boundary pixels renormalize over real neighbors only.

The layer is glue around one autodiff node, `tensor.local_attention`, so
no reshapes or transposes are recorded. That op works channel-major, with
queries, keys and values laid out (heads, c, H, W, B) from the projection
to the output. Keys and values are zero-padded by k//2, and each neighbor
offset is a shifted slice of the padded maps. Slots that fall in the
padding get a -1e9 logit bias, so their softmax weight is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass
class AttentionLayerParams:
    """Trainable state of one local self-attention layer.

    w_q, w_k, w_v are (c_in, c_out) so projection size does not depend on
    the spatial extent. rel_pos is (heads, 2k-1, 2k-1, c_out/heads),
    indexed by the neighbor offset shifted by k-1; a k x k neighborhood
    touches only the central band of the table.
    """

    c_in: int
    c_out: int
    heads: int
    extent: int
    stride: int = 1
    pos_scale: str = "fourth-root"
    w_q: Tensor = field(repr=False, default=None)
    w_k: Tensor = field(repr=False, default=None)
    w_v: Tensor = field(repr=False, default=None)
    rel_pos: Tensor = field(repr=False, default=None)

    def __post_init__(self):
        if self.c_out % self.heads != 0:
            raise ConfigError(f"c_out={self.c_out} not divisible by heads={self.heads}")
        if self.extent < 1 or self.extent % 2 == 0:
            raise ConfigError(f"extent must be odd and positive, got {self.extent}")
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.stride}")
        if self.pos_scale not in ("fourth-root", "sqrt"):
            raise ConfigError(f"unknown pos_scale {self.pos_scale!r}")

    @property
    def head_dim(self) -> int:
        return self.c_out // self.heads

    def tensors(self) -> dict:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v, "rel_pos": self.rel_pos}


def init_attention_params(
    c_in: int,
    c_out: int,
    heads: int,
    extent: int,
    rng: np.random.Generator,
    stride: int = 1,
    pos_scale: str = "fourth-root",
) -> AttentionLayerParams:
    """Fan-in uniform projections, normal(0, head_dim**-0.5) positions."""
    p = AttentionLayerParams(c_in, c_out, heads, extent, stride, pos_scale)
    bound = 1.0 / np.sqrt(c_in)
    dt = T.default_dtype()
    for name in ("w_q", "w_k", "w_v"):
        setattr(p, name, Tensor(rng.uniform(-bound, bound, (c_in, c_out)).astype(dt), requires_grad=True))
    span = 2 * extent - 1
    p.rel_pos = Tensor(
        (rng.standard_normal((heads, span, span, p.head_dim)) * p.head_dim**-0.5).astype(dt),
        requires_grad=True,
    )
    return p


def attention_param_count(params: AttentionLayerParams) -> int:
    """Trainable scalars: 3*c_in*c_out projections + (2k-1)^2*c_out positions."""
    return 3 * params.c_in * params.c_out + (2 * params.extent - 1) ** 2 * params.c_out


def local_self_attention(x: Tensor, params: AttentionLayerParams, return_weights: bool = False):
    """Windowed attention: per head, softmax over the valid neighborhood
    of content plus positional logits, then a convex mix of the values.

    Output is (B, c_out, H, W); a stride-2 layer mean-pools 2x2 afterwards.
    With `return_weights`, also returns the (B, H*W, heads, k*k) softmax
    weights (exact zeros at out-of-image slots).
    """
    c_in = x.shape[1]
    if c_in != params.c_in:
        raise ShapeError(f"input has {c_in} channels, layer expects {params.c_in}")
    pos_div = np.sqrt(params.c_out) if params.pos_scale == "sqrt" else params.c_out**0.25
    out = T.local_attention(x, params.w_q, params.w_k, params.w_v, params.rel_pos,
                            1.0 / np.sqrt(params.c_out), 1.0 / pos_div, return_weights)
    y = out[0] if return_weights else out
    if params.stride == 2:
        y = T.avg_pool2(y)
    return (y, out[1]) if return_weights else y
