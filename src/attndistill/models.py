"""Bottleneck ResNet-style teacher and local self-attention students.

All networks share the small-image layout: a 3x3 stride-1 stem, three or
four bottleneck stages (stride 2 from the second stage on), global average
pooling, and a linear classifier. Activation taps are captured after the
final ReLU of every residual block. Student variants differ in where
spatial convolutions are replaced by local self-attention:

  conv         every spatial layer is a convolution (teacher layout)
  hybrid       convolutional stem, self-attention everywhere else
  homogeneous  self-attention everywhere, including the stem

The FLOP counter tallies multiply-accumulates of convolutions, attention
projections/logits/mixing, and the classifier, each counted as 2 FLOPs per
MAC. Elementwise work (batch norm, ReLU, pooling, residual adds) is
excluded; this convention is applied to teachers and students alike. Given
masks, the counter charges a masked weight's multiplies at its nonzero
entries only.

While a column-mode student is evaluated, `sparse.compacted` fills the
`live` of each conv and attention layer with a dead weight column with
the live columns and the weight matrix on them; the forward passes them on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import POS_SCALES, init_attention_params, local_self_attention
from .errors import ConfigError, ContractError, ShapeError
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
    stem_width: int = 0  # 0 -> widths[0]
    expansion: int = 4
    pos_scale: str = "fourth-root"

    def __post_init__(self):
        choices = (("role", ("teacher", "student")), ("variant", VARIANTS), ("depth", DEPTHS),
                   ("pos_scale", POS_SCALES))
        for name, allowed in choices:
            if getattr(self, name) not in allowed:
                raise ConfigError(f"model spec field {name} must be one of {allowed}, got {getattr(self, name)!r}")
        counts = [(n, getattr(self, n), 1) for n in ("heads", "extent", "classes", "input_hw", "expansion")]
        counts += [(f"{n}[{i}]", v, 1) for n in ("widths", "blocks") for i, v in enumerate(getattr(self, n))]
        for name, value, least in counts + [("stem_width", self.stem_width, 0)]:  # a bool is no count
            if type(value) is not int or value < least:
                raise ConfigError(f"model spec field {name} must be an integer >= {least}, got {value!r}")
        if not self.widths or len(self.widths) != len(self.blocks):
            raise ConfigError("model spec fields widths and blocks must be non-empty and of the same length")
        if self.extent % 2 == 0:
            raise ConfigError(f"model spec field extent must be odd, got {self.extent}")
        if self.variant != "conv":
            for w in self.widths:
                if w % self.heads:
                    raise ConfigError(f"width {w} not divisible by {self.heads} heads")
            if self.variant == "homogeneous" and (self.stem_width or self.widths[0]) % self.heads:
                raise ConfigError("stem width not divisible by head count")

    @property
    def stem_out(self) -> int:
        return self.stem_width or self.widths[0]


def teacher50_spec(classes: int = 10) -> ModelSpec:
    return ModelSpec("teacher", "conv", "teacher50", (64, 128, 256, 512), (3, 4, 6, 3), 3, 8, classes)


def student_spec(depth: str = "student26", variant: str = "hybrid", classes: int = 10,
                 extent: int = 3, heads: int = 8, pos_scale: str = "fourth-root") -> ModelSpec:
    blocks = {"student26": (1, 2, 4, 1), "student38": (2, 3, 5, 2)}[depth]
    return ModelSpec("student", variant, depth, (64, 128, 256, 512), blocks, extent, heads,
                     classes, pos_scale=pos_scale)


def toy_spec(role: str, variant: str, classes: int = 2, extent: int = 3, heads: int = 2,
             pos_scale: str = "fourth-root") -> ModelSpec:
    blocks = (2, 2, 2) if role == "teacher" else (1, 1, 1)
    return ModelSpec(role, variant, "toy", (4, 8, 16), blocks, extent, heads, classes,
                     expansion=2, pos_scale=pos_scale)


def spec_by_name(depth: str, role: str, variant: str, classes: int, extent: int, heads: int,
                 pos_scale: str = "fourth-root") -> ModelSpec:
    if depth == "toy":
        return toy_spec(role, variant, classes, extent, heads, pos_scale)
    if depth == "teacher50":
        return teacher50_spec(classes)
    if depth in ("student26", "student38"):
        return student_spec(depth, variant, classes, extent, heads, pos_scale)
    raise ConfigError(f"unknown depth class {depth!r}")


# --- layers ---


class Conv2d:
    spatial_kind = "conv"

    def __init__(self, cin, cout, k, stride, h, rng):
        self.cin, self.cout, self.k, self.stride, self.h_out = cin, cout, k, stride, h // stride
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


class SelfAttention:
    spatial_kind = "attention"

    def __init__(self, cin, cout, extent, heads, stride, h, rng, pos_scale):
        self.p = init_attention_params(cin, cout, heads, extent, rng, stride, pos_scale)
        self.cin, self.cout, self.k, self.h_in = cin, cout, extent, h
        self.live = {}

    def forward(self, x):
        live = tuple(self.live[n] for n in ("w_q", "w_k", "w_v")) if self.live else None
        return local_self_attention(x, self.p, live=live)

    def params(self):
        return self.p.tensors()

    def flops(self, nonzero=None):
        hw = self.h_in * self.h_in  # logits and mixing run at input resolution
        proj = sum((nonzero or {}).get(n, self.cin * self.cout) for n in ("w_q", "w_k", "w_v"))
        return 2 * proj * hw + 3 * (2 * self.k * self.k * self.cout * hw)


class BatchNorm:
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
    def __init__(self, cin, cout, rng):
        dt = T.default_dtype()
        bound = 1.0 / np.sqrt(cin)
        self.cin, self.cout = cin, cout
        self.w = Tensor(rng.uniform(-bound, bound, (cin, cout)).astype(dt), requires_grad=True)
        self.b = Tensor(np.zeros(cout, dtype=dt), requires_grad=True)

    def forward(self, x):
        return T.add(T.matmul(x, self.w), self.b)

    def params(self):
        return {"w": self.w, "b": self.b}

    def flops(self, nonzero=None):
        return 2 * self.cin * self.cout


def _spatial_layer(spec, cin, cout, stride, h, rng):
    if spec.variant == "conv":
        return Conv2d(cin, cout, 3, stride, h, rng)
    return SelfAttention(cin, cout, spec.extent, spec.heads, stride, h, rng, spec.pos_scale)


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
        # with no graph recorded, BN, ReLU and the add write into the arrays
        # this block's layers made; x is the shortcut and a tap, never written
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
        cin, h = spec.stem_out, spec.input_hw
        if spec.variant == "homogeneous":
            self.stem = SelfAttention(3, cin, spec.extent, spec.heads, 1, h, rng, spec.pos_scale)
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
        """Run the network, returning (logits, every block's output in network order)."""
        if x.ndim != 4 or x.shape[1] != 3 or x.shape[2] != self.spec.input_hw:
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
        """Conv kernels and attention projections, in network order.

        Relative-position tables, norm parameters, biases, and the
        classifier stay dense.
        """
        out = {}
        for prefix, layer in self.named_layers():
            if prefix == "fc" or isinstance(layer, BatchNorm):
                continue
            if prefix == "stem" and not include_stem:
                continue
            if isinstance(layer, Conv2d):
                out[f"{prefix}.w"] = layer.w
            elif isinstance(layer, SelfAttention):
                for nm in ("w_q", "w_k", "w_v"):
                    out[f"{prefix}.{nm}"] = getattr(layer.p, nm)
        return out


def build_model(spec: ModelSpec, rng) -> Model:
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return Model(spec, rng)


def tap_pairs(student_spec: ModelSpec, teacher_spec: ModelSpec) -> list:
    """(student, teacher) indices into the flat `forward_with_taps` tap
    lists, stage by stage: block for block when a stage's block counts are
    equal, otherwise only the stage-final taps, which guarantees compatible
    spatial sizes."""
    if len(student_spec.blocks) != len(teacher_spec.blocks):
        raise ConfigError("teacher and student stage counts differ; taps cannot pair")
    pairs, i, j = [], 0, 0
    for ns, nt in zip(student_spec.blocks, teacher_spec.blocks):
        if ns == nt:
            pairs += [(i + b, j + b) for b in range(ns)]
        else:
            pairs.append((i + ns - 1, j + nt - 1))
        i, j = i + ns, j + nt
    return pairs


def count_params(model: Model, masks: dict | None = None):
    """(total, nonzero) trainable scalar counts; masks zero out prunable entries."""
    params = model.named_params()
    total = sum(t.size for t in params.values())
    if masks is None:
        return total, total
    prunable = model.prunable(include_stem=any(n.startswith("stem.") for n in masks))
    if set(masks) != set(prunable):
        raise ContractError("masks must cover exactly the prunable parameter set")
    masked_off = 0
    for name, mask in masks.items():
        if mask.shape != prunable[name].shape:
            raise ContractError(f"mask shape {mask.shape} != param shape {prunable[name].shape} for {name}")
        masked_off += int(mask.size - np.count_nonzero(mask))
    return total, total - masked_off


def count_flops(model: Model, masks: dict | None = None) -> int:
    """Forward-pass FLOPs (2 per MAC) of conv/attention/linear layers; a
    weight in `masks` is charged at its nonzero entries only."""
    masks = masks or {}
    return sum(layer.flops({n: int(np.count_nonzero(masks[f"{prefix}.{n}"]))
                            for n in layer.params() if f"{prefix}.{n}" in masks})
               for prefix, layer in model.named_layers() if not isinstance(layer, BatchNorm))
