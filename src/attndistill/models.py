"""Bottleneck ResNet-style teacher and local self-attention students.

All networks share the small-image layout: a 3x3 stride-1 stem, three or
four bottleneck stages (stride 2 from the second stage on), global average
pooling, and a linear classifier. A model's activation taps are its stage
outputs: the final ReLU of each stage's last residual block, where
attention transfer compares teacher and student. A preset depth builds one
role (teacher50 a teacher, student26 and student38 students); toy builds
both. Student variants differ in where spatial convolutions are replaced
by local self-attention:

  conv         every spatial layer is a convolution (teacher layout)
  hybrid       convolutional stem, self-attention everywhere else
  homogeneous  self-attention everywhere, including the stem

The FLOP counter tallies multiply-accumulates of convolutions, attention
projections/logits/mixing, and the classifier, each counted as 2 FLOPs per
MAC. Elementwise work (batch norm, ReLU, pooling, residual adds) is
excluded; this convention is applied to teachers and students alike. Given
masks, the counter charges a masked weight's multiplies at its nonzero
entries only.

Each layer is one object holding its own weights (`Conv2d`,
`attention.SelfAttention`, `BatchNorm`, `Linear`), and each layer class
names its prunable weights in `PRUNABLE`. While a column-mode student is
evaluated, `sparse.compacted` fills the `live` of each conv and attention
layer with a dead weight column with the live columns and the weight
matrix on them; the forward passes them on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import SelfAttention
from .errors import ConfigError, ShapeError
from .tensor import Tensor

VARIANTS = ("conv", "hybrid", "homogeneous")
DEPTHS = ("toy", "student26", "student38", "teacher50")


@dataclass(frozen=True)
class ModelSpec:
    role: str  # teacher | student
    variant: str
    depth: str
    widths: tuple
    blocks: tuple
    extent: int
    heads: int
    classes: int = 10
    input_hw: int = 32
    expansion: int = 4

    def __post_init__(self):
        choices = (("role", ("teacher", "student")), ("variant", VARIANTS), ("depth", DEPTHS))
        for name, allowed in choices:
            if getattr(self, name) not in allowed:
                raise ConfigError(f"model spec field {name} must be one of {allowed}, got {getattr(self, name)!r}")
        counts = [(n, getattr(self, n)) for n in ("heads", "extent", "classes", "input_hw", "expansion")]
        counts += [(f"{n}[{i}]", v) for n in ("widths", "blocks") for i, v in enumerate(getattr(self, n))]
        for name, value in counts:  # a bool is no count
            if type(value) is not int or value < 1:
                raise ConfigError(f"model spec field {name} must be an integer >= 1, got {value!r}")
        if not self.widths or len(self.widths) != len(self.blocks):
            raise ConfigError("model spec fields widths and blocks must be non-empty and of the same length")
        if self.extent % 2 == 0:
            raise ConfigError(f"model spec field extent must be odd, got {self.extent}")
        if self.variant != "conv":
            for w in self.widths:
                if w % self.heads:
                    raise ConfigError(f"width {w} not divisible by {self.heads} heads")


def teacher50_spec(classes: int = 10) -> ModelSpec:
    return ModelSpec("teacher", "conv", "teacher50", (64, 128, 256, 512), (3, 4, 6, 3), 3, 8, classes)


def student_spec(depth: str = "student26", variant: str = "hybrid", classes: int = 10,
                 extent: int = 3, heads: int = 8) -> ModelSpec:
    blocks = {"student26": (1, 2, 4, 1), "student38": (2, 3, 5, 2)}[depth]
    return ModelSpec("student", variant, depth, (64, 128, 256, 512), blocks, extent, heads, classes)


def toy_spec(role: str, variant: str, classes: int = 2, extent: int = 3, heads: int = 2) -> ModelSpec:
    blocks = (2, 2, 2) if role == "teacher" else (1, 1, 1)
    return ModelSpec(role, variant, "toy", (4, 8, 16), blocks, extent, heads, classes, expansion=2)


def spec_by_name(depth: str, role: str, variant: str, classes: int, extent: int, heads: int) -> ModelSpec:
    if depth == "toy":
        return toy_spec(role, variant, classes, extent, heads)
    if depth == "teacher50":
        spec = teacher50_spec(classes)
    elif depth in ("student26", "student38"):
        spec = student_spec(depth, variant, classes, extent, heads)
    else:
        raise ConfigError(f"unknown depth class {depth!r}")
    if spec.role != role:
        raise ConfigError(f"depth {depth} builds a {spec.role}, not a {role}")
    return spec


# --- layers ---


class Conv2d:
    spatial_kind = "conv"
    PRUNABLE = ("w",)

    def __init__(self, cin, cout, k, stride, h, rng):
        self.k, self.stride, self.h_out = k, stride, h // stride
        std = np.sqrt(2.0 / (cin * k * k))
        self.w = Tensor((rng.standard_normal((cout, cin, k, k)) * std).astype(T.default_dtype()),
                        requires_grad=True)
        self.live = {}

    def forward(self, x):
        return T.conv2d(x, self.w, stride=self.stride, pad=self.k // 2, live=self.live.get("w"))

    def params(self):
        return {"w": self.w}

    def flops(self, nonzero=None):
        """2 FLOPs per MAC; `nonzero` maps a masked weight's name to its nonzero count."""
        return 2 * self.h_out * self.h_out * (nonzero or {}).get("w", self.w.size)


class BatchNorm:
    PRUNABLE = ()

    def __init__(self, c):
        dt = T.default_dtype()
        self.gamma = Tensor(np.ones(c, dtype=dt), requires_grad=True)
        self.beta = Tensor(np.zeros(c, dtype=dt), requires_grad=True)
        self.running_mean = np.zeros(c, dtype=dt)
        self.running_var = np.ones(c, dtype=dt)

    def forward(self, x, training, overwrite=False):
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var, training, overwrite)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}


class Linear:
    PRUNABLE = ()  # the classifier stays dense

    def __init__(self, cin, cout, rng):
        dt = T.default_dtype()
        bound = 1.0 / np.sqrt(cin)
        self.w = Tensor(rng.uniform(-bound, bound, (cin, cout)).astype(dt), requires_grad=True)
        self.b = Tensor(np.zeros(cout, dtype=dt), requires_grad=True)

    def forward(self, x):
        return T.add(T.matmul(x, self.w), self.b)

    def params(self):
        return {"w": self.w, "b": self.b}

    def flops(self, nonzero=None):
        return 2 * self.w.size


def _spatial_layer(spec, cin, cout, stride, h, rng):
    if spec.variant == "conv":
        return Conv2d(cin, cout, 3, stride, h, rng)
    return SelfAttention(cin, cout, spec.heads, spec.extent, rng, stride, h)


class Bottleneck:
    """conv1x1 -> spatial (conv or attention) -> conv1x1, with shortcut."""

    def __init__(self, spec, cin, width, stride, h, rng):
        out = width * spec.expansion
        self.conv1 = Conv2d(cin, width, 1, 1, h, rng)
        self.bn1 = BatchNorm(width)
        self.spatial = _spatial_layer(spec, width, width, stride, h, rng)
        self.bn2 = BatchNorm(width)
        self.conv3 = Conv2d(width, out, 1, 1, h // stride, rng)
        self.bn3 = BatchNorm(out)
        self.down = None
        self.down_bn = None
        if stride != 1 or cin != out:
            self.down = Conv2d(cin, out, 1, stride, h, rng)
            self.down_bn = BatchNorm(out)
        self.out_channels = out

    def forward(self, x, training):
        # BN, ReLU and the add may write into the arrays this block's layers
        # made, which nothing reads again (while recording, only ReLU and the
        # add do, see tensor's memory contract); x is the shortcut, and may
        # be a stage's tap, so it is never written
        h = T.relu(self.bn1.forward(self.conv1.forward(x), training, overwrite=True), overwrite=True)
        h = T.relu(self.bn2.forward(self.spatial.forward(h), training, overwrite=True), overwrite=True)
        h = self.bn3.forward(self.conv3.forward(h), training, overwrite=True)
        sc = x if self.down is None else self.down_bn.forward(self.down.forward(x), training, overwrite=True)
        return T.relu(T.add(h, sc, overwrite=True), overwrite=True)

    def sublayers(self):
        pairs = [("conv1", self.conv1), ("bn1", self.bn1),
                 ("sa" if self.spatial.spatial_kind == "attention" else "conv2", self.spatial),
                 ("bn2", self.bn2), ("conv3", self.conv3), ("bn3", self.bn3)]
        if self.down is not None:
            pairs += [("down", self.down), ("down_bn", self.down_bn)]
        return pairs


class Model:
    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        cin, h = spec.widths[0], spec.input_hw
        if spec.variant == "homogeneous":
            self.stem = SelfAttention(3, cin, spec.heads, spec.extent, rng, 1, h)
        else:
            self.stem = Conv2d(3, cin, 3, 1, h, rng)
        self.stem_bn = BatchNorm(cin)
        self.stages = []
        for s, (width, nblocks) in enumerate(zip(spec.widths, spec.blocks)):
            blocks = []
            for b in range(nblocks):
                stride = 2 if (s > 0 and b == 0) else 1
                blocks.append(Bottleneck(spec, cin, width, stride, h, rng))
                cin, h = blocks[-1].out_channels, h // stride
            self.stages.append(blocks)
        self.fc = Linear(cin, spec.classes, rng)

    def forward_with_taps(self, x: Tensor, training: bool = False):
        """Run the network, returning (logits, each stage's output in network order).

        With no graph recorded, a block's output is freed once the next
        block has read it, unless it ends its stage."""
        if x.ndim != 4 or x.shape[1:] != (3, self.spec.input_hw, self.spec.input_hw):
            raise ShapeError(f"expected (B, 3, {self.spec.input_hw}, {self.spec.input_hw}), got {x.shape}")
        h = T.relu(self.stem_bn.forward(self.stem.forward(x), training, overwrite=True), overwrite=True)
        taps = []
        for blocks in self.stages:
            for blk in blocks:
                h = blk.forward(h, training)
            taps.append(h)
        pooled = T.global_avg_pool(h)
        return self.fc.forward(pooled), taps

    # --- bookkeeping ---

    def named_layers(self):
        yield "stem", self.stem
        yield "stem_bn", self.stem_bn
        for s, blocks in enumerate(self.stages):
            for b, blk in enumerate(blocks):
                for nm, layer in blk.sublayers():
                    yield f"s{s}.b{b}.{nm}", layer
        yield "fc", self.fc

    def named_params(self) -> dict:
        out = {}
        for prefix, layer in self.named_layers():
            for nm, t in layer.params().items():
                out[f"{prefix}.{nm}"] = t
        return out

    def named_buffers(self) -> dict:
        out = {}
        for prefix, layer in self.named_layers():
            if isinstance(layer, BatchNorm):
                for nm, arr in layer.buffers().items():
                    out[f"{prefix}.{nm}"] = arr
        return out

    def prunable(self, include_stem: bool = True) -> dict:
        """Every layer's `PRUNABLE` weights (conv kernels and attention
        projections), in network order.

        Relative-position tables, norm parameters, biases, and the
        classifier stay dense.
        """
        return {f"{prefix}.{n}": getattr(layer, n) for prefix, layer in self.named_layers()
                if include_stem or prefix != "stem" for n in layer.PRUNABLE}


def build_model(spec: ModelSpec, rng) -> Model:
    return Model(spec, rng)


def count_params(model: Model, masks: dict | None = None):
    """(total, nonzero) trainable scalar counts: the total less each mask's
    zeros. Masks are audited where they enter (`sparse.audit_coverage`)."""
    total = sum(t.size for t in model.named_params().values())
    return total, total - sum(m.size - int(np.count_nonzero(m)) for m in (masks or {}).values())


def count_flops(model: Model, masks: dict | None = None) -> int:
    """Forward-pass FLOPs (2 per MAC) of conv/attention/linear layers; a
    weight in `masks` is charged at its nonzero entries only."""
    masks = masks or {}
    return sum(layer.flops({n: int(np.count_nonzero(masks[f"{prefix}.{n}"]))
                            for n in layer.params() if f"{prefix}.{n}" in masks})
               for prefix, layer in model.named_layers() if not isinstance(layer, BatchNorm))
