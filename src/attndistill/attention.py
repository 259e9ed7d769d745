"""Local multi-head self-attention over k x k pixel neighborhoods.

Each output pixel attends to its spatial neighborhood through projected
queries, keys, and values plus a learned relative-position table indexed by
the neighbor offset. The content logit is scaled by 1/sqrt(c_out) and the
positional logit by 1/c_out**0.25. Out-of-image slots are excluded from
the softmax, so boundary pixels renormalize over real neighbors only.

One `SelfAttention` object is one layer: its sizes, its weights and its
`live` columns, which `sparse.compacted` fills while a column-mode student
is evaluated. The layer is glue around one autodiff node,
`tensor.local_attention`, so no reshapes or transposes are recorded. That
op runs a cache-sized chunk of images at a time, channel-major, with
queries, keys and values laid out (heads, c, H, W, b) from the projection
to the output. Keys and values are zero-padded by k//2, and each neighbor
offset is a shifted slice of the padded maps. Slots that fall in the
padding get a -1e9 logit bias, so their softmax weight is exactly zero.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


class SelfAttention:
    """One local self-attention layer.

    w_q, w_k, w_v are (c_in, c_out), fan-in uniform, so projection size
    does not depend on the spatial extent. rel_pos is (heads, 2k-1, 2k-1,
    c_out/heads), normal(0, head_dim**-0.5), indexed by the neighbor offset
    shifted by k-1; a k x k neighborhood touches only the central band of
    the table. `h`, the input height, is read only by `flops`.
    """

    spatial_kind = "attention"
    PRUNABLE = ("w_q", "w_k", "w_v")

    def __init__(self, c_in: int, c_out: int, heads: int, extent: int, rng: np.random.Generator,
                 stride: int = 1, h: int = 0):
        if c_out % heads != 0:
            raise ConfigError(f"c_out={c_out} not divisible by heads={heads}")
        if extent < 1 or extent % 2 == 0:
            raise ConfigError(f"extent must be odd and positive, got {extent}")
        if stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {stride}")
        self.c_in, self.c_out, self.heads, self.extent = c_in, c_out, heads, extent
        self.stride, self.h, self.head_dim = stride, h, c_out // heads
        bound, dt = 1.0 / np.sqrt(c_in), T.default_dtype()
        self.w_q, self.w_k, self.w_v = (
            Tensor(rng.uniform(-bound, bound, (c_in, c_out)).astype(dt), requires_grad=True) for _ in range(3))
        span = 2 * extent - 1
        self.rel_pos = Tensor(
            (rng.standard_normal((heads, span, span, self.head_dim)) * self.head_dim**-0.5).astype(dt),
            requires_grad=True,
        )
        self.live = {}

    def forward(self, x):
        return local_self_attention(x, self)

    def params(self):
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v, "rel_pos": self.rel_pos}

    def flops(self, nonzero=None):
        """2 FLOPs per MAC; `nonzero` maps a masked projection's name to its nonzero count."""
        hw = self.h * self.h  # logits and mixing run at input resolution
        proj = sum((nonzero or {}).get(n, self.w_q.size) for n in self.PRUNABLE)
        return 2 * proj * hw + 3 * (2 * self.extent * self.extent * self.c_out * hw)


init_attention_params = SelfAttention


def local_self_attention(x: Tensor, layer: SelfAttention) -> Tensor:
    """Windowed attention: per head, softmax over the valid neighborhood
    of content plus positional logits, then a convex mix of the values.

    Output is (B, c_out, H, W); a stride-2 layer mean-pools 2x2 afterwards.
    The layer's `live` columns, if any, are passed on to `tensor.local_attention`.
    """
    c_in = x.shape[1]
    if c_in != layer.c_in:
        raise ShapeError(f"input has {c_in} channels, layer expects {layer.c_in}")
    live = tuple(layer.live[n] for n in layer.PRUNABLE) if layer.live else None
    y = T.local_attention(x, layer.w_q, layer.w_k, layer.w_v, layer.rel_pos,
                          1.0 / np.sqrt(layer.c_out), 1.0 / layer.c_out**0.25, live)
    return T.avg_pool2(y) if layer.stride == 2 else y
