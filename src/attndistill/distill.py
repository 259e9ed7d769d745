"""Distillation losses: cross-entropy, softened KL, and attention transfer.

The combined objective is

    alpha * CE(y, student) + (1 - alpha) * KL(teacher || student)
        + beta / 2 * sum over tap pairs of || psi_S - psi_T ||_2

where psi are l2-normalized, channel-summed squared activations flattened
per batch element, and the KL term softens both logit sets by a shared
temperature. Teacher-side inputs are detached, so the total loss is
differentiable with respect to student parameters only.

The KL term is multiplied by temperature**2 by default so its gradient
scale stays comparable across temperatures; the switch
`temperature_sq_correction` restores the uncorrected value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

_NORM_GUARD = 1e-12  # added to map norms so dead activations stay finite
_DIST_GUARD = 1e-24  # inside the distance sqrt; keeps the gradient finite at 0


@dataclass
class DistillConfig:
    alpha: float = 0.1
    beta: float = 1000.0
    temperature: float = 4.0
    temperature_sq_correction: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")


def attention_map(a: Tensor) -> Tensor:
    """Channel-summed squared activation, flattened to (B, H*W)."""
    if a.ndim != 4:
        raise ContractError(f"attention_map expects a 4-D activation, got {a.shape}")
    b = a.shape[0]
    return T.reshape(T.tsum(T.abspow(a, 2.0), axis=1), (b, -1))


def _unit_rows(m: Tensor) -> Tensor:
    norm = T.sqrt(T.tsum(T.mul(m, m), axis=1, keepdims=True))
    return T.div(m, T.add(norm, _NORM_GUARD))


def at_loss(taps_s, taps_t) -> Tensor:
    """Sum over tap pairs of the batch-mean l2 distance between
    normalized attention maps. Teacher activations are detached."""
    if len(taps_s) != len(taps_t):
        raise ContractError(f"tap counts differ: {len(taps_s)} vs {len(taps_t)}")
    total = None
    for a_s, a_t in zip(taps_s, taps_t):
        psi_s = attention_map(a_s)
        psi_t = attention_map(a_t.detach())
        if psi_s.shape != psi_t.shape:
            raise ContractError(f"flattened map shapes differ: {psi_s.shape} vs {psi_t.shape}")
        diff = _unit_rows(psi_s) - _unit_rows(psi_t)
        dist = T.sqrt(T.add(T.tsum(T.mul(diff, diff), axis=1), _DIST_GUARD))
        pair = T.tmean(dist)
        total = pair if total is None else T.add(total, pair)
    if total is None:
        raise ContractError("at_loss needs at least one tap pair")
    return total


def kd_loss(z_t: Tensor, z_s: Tensor, temperature: float, sq_correction: bool = True) -> Tensor:
    """Batch-mean KL(teacher softened || student softened).

    Teacher logits carry no gradient. With `sq_correction` the value is
    scaled by temperature**2.
    """
    if z_t.shape != z_s.shape:
        raise ContractError(f"logit shapes differ: {z_t.shape} vs {z_s.shape}")
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    zt = z_t.detach()
    log_pt = T.log_softmax(T.scale(zt, 1.0 / temperature), axis=1)
    p_t = Tensor(np.exp(log_pt.data))
    log_ps = T.log_softmax(T.scale(z_s, 1.0 / temperature), axis=1)
    kl_rows = T.tsum(T.mul(p_t, log_pt - log_ps), axis=1)
    out = T.tmean(kl_rows)
    if sq_correction:
        out = T.scale(out, temperature * temperature)
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels."""
    b, c = logits.shape
    onehot = np.zeros((b, c), dtype=logits.data.dtype)
    onehot[np.arange(b), np.asarray(labels)] = 1.0
    return T.scale(T.tmean(T.tsum(T.mul(T.log_softmax(logits, axis=1), Tensor(onehot)), axis=1)), -1.0)


def loss_terms(labels, logits_s, logits_t, taps_s, taps_t, cfg: DistillConfig):
    """The three unweighted loss components as (ce, kd, at) tensors.

    kd and at are None when their weights eliminate them from the total.
    """
    ce = cross_entropy(logits_s, labels)
    kd = None
    if cfg.alpha < 1.0:
        kd = kd_loss(logits_t, logits_s, cfg.temperature, cfg.temperature_sq_correction)
    at = None
    if cfg.beta > 0:
        at = at_loss(taps_s, taps_t)
    return ce, kd, at


def total_loss(labels, logits_s, logits_t, taps_s, taps_t, cfg: DistillConfig) -> Tensor:
    """alpha * CE + (1 - alpha) * KD + beta/2 * AT."""
    ce, kd, at = loss_terms(labels, logits_s, logits_t, taps_s, taps_t, cfg)
    return combine_terms(ce, kd, at, cfg)


def combine_terms(ce, kd, at, cfg: DistillConfig) -> Tensor:
    out = T.scale(ce, cfg.alpha)
    if kd is not None:
        out = T.add(out, T.scale(kd, 1.0 - cfg.alpha))
    if at is not None:
        out = T.add(out, T.scale(at, cfg.beta / 2.0))
    return out
