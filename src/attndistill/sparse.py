"""Single-pass sparse training: masked weights with epoch-end prune/regrow.

Masks are initialized randomly at the target density and updated once per
epoch: each layer drops its lowest-magnitude active weights at the current
prune rate, and the freed global budget is redistributed across layers in
proportion to the momentum each layer's active weights contributed during
the epoch. Regrown coordinates are chosen by momentum magnitude, start at
zero, and get a fresh (zeroed) velocity. The prune rate decays linearly to
zero over training, so the mask settles while the budget stays constant.

Two granularities are supported: irregular (individual scalars) and column
(whole columns of the (C_out) x (C_in * k * k) weight matrix, scored by
squared Frobenius norm; attention projections count their output dimension
as rows). All sorts break ties by flat index so trajectories are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .models import Model
from .optim import SGD
from .tensor import Tensor

MODES = ("irregular", "column")


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    """View a prunable weight as (rows, columns) for column bookkeeping.

    Conv kernels (C_out, C_in, kh, kw) flatten the trailing axes; attention
    projections are stored (c_in, c_out) and transpose so rows are outputs.
    """
    if arr.ndim == 4:
        return arr.reshape(arr.shape[0], -1)
    if arr.ndim == 2:
        return arr.T
    raise ContractError(f"prunable weights must be 2-D or 4-D, got {arr.ndim}-D")


def column_scores(w) -> np.ndarray:
    """Squared F-norm of each weight column, summed over output rows.

    4-D conv weights return a (C_in, kh, kw) score grid; 2-D attention
    projections return one score per input channel.
    """
    arr = w.data if isinstance(w, Tensor) else np.asarray(w)
    mat = _as_matrix(arr)
    scores = (mat.astype(np.float64) ** 2).sum(axis=0)
    if arr.ndim == 4:
        return scores.reshape(arr.shape[1:])
    return scores


def decay_prune_rate(p0: float, epoch: int, total_epochs: int) -> float:
    """Linear decay: p0 * (1 - e/E)."""
    if not 0 <= epoch < total_epochs:
        raise ContractError(f"epoch {epoch} outside [0, {total_epochs})")
    return p0 * (1.0 - epoch / total_epochs)


@dataclass
class SparseState:
    mode: str
    density: float
    prune_rate0: float
    masks: dict = field(default_factory=dict)  # name -> {0,1} array, weight-shaped
    target_nonzero: int = 0
    p_e: float = 0.0
    include_stem: bool = True
    mu: dict = field(default_factory=dict)  # normalized momentum contribution
    _mu_sum: dict = field(default_factory=dict, repr=False)
    _mu_batches: int = 0

    @property
    def layer_names(self):
        return list(self.masks)

    def nonzero(self) -> int:
        return int(sum(np.count_nonzero(m) for m in self.masks.values()))

    def layer_densities(self) -> dict:
        return {n: float(np.count_nonzero(m)) / m.size for n, m in self.masks.items()}

    # --- momentum contribution statistics ---

    def accumulate_momentum(self, optimizer: SGD):
        """Add this batch's mean |velocity| over active weights, per layer."""
        for name, mask in self.masks.items():
            v = optimizer.velocities.get(name)
            if v is None:
                raise ContractError(f"optimizer has no momentum buffer for {name}")
            active = mask > 0
            contrib = float(np.abs(v[active]).mean()) if active.any() else 0.0
            self._mu_sum[name] = self._mu_sum.get(name, 0.0) + contrib
        self._mu_batches += 1

    def finalize_epoch_momentum(self) -> dict:
        """Normalize the epoch's running means to sum 1 and reset them.

        A fully degenerate epoch (all-zero momentum) distributes uniformly.
        """
        names = self.layer_names
        if self._mu_batches == 0:
            raw = {n: 0.0 for n in names}
        else:
            raw = {n: self._mu_sum.get(n, 0.0) / self._mu_batches for n in names}
        total = sum(raw.values())
        if total <= 0.0:
            self.mu = {n: 1.0 / len(names) for n in names}
        else:
            self.mu = {n: raw[n] / total for n in names}
        self._mu_sum = {}
        self._mu_batches = 0
        return self.mu


def init_mask(model: Model, density: float, rng, mode: str = "irregular",
              prune_rate0: float = 0.5, include_stem: bool = True) -> SparseState:
    """Random masks at the target density, exact per layer.

    Irregular mode activates round(d * size) coordinates per layer; column
    mode activates round(d * n_columns) whole columns.
    """
    if not 0.0 < density <= 1.0:
        raise ConfigError(f"density must be in (0, 1], got {density}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    state = SparseState(mode=mode, density=density, prune_rate0=prune_rate0, include_stem=include_stem)
    for name, p in model.prunable(include_stem=include_stem).items():
        mask = np.zeros(p.shape, dtype=p.data.dtype)
        if mode == "irregular":
            n_on = int(round(density * mask.size))
            on = rng.choice(mask.size, size=n_on, replace=False)
            mask.reshape(-1)[on] = 1.0
        else:
            mat = _as_matrix(mask)
            n_cols = mat.shape[1]
            on = rng.choice(n_cols, size=int(round(density * n_cols)), replace=False)
            mat[:, on] = 1.0
        state.masks[name] = mask
    state.target_nonzero = state.nonzero()
    return state


def apply_mask(state: SparseState, model: Model):
    """Zero out masked weights in place (after every optimizer step)."""
    params = model.prunable(include_stem=state.include_stem)
    for name, mask in state.masks.items():
        p = params.get(name)
        if p is None or p.shape != mask.shape:
            raise ContractError(f"mask for {name} does not match a prunable weight")
        p.data *= mask


def _apportion(freed: int, mu: dict, capacity: dict) -> dict:
    """Integer quotas proportional to mu, capped by capacity, summing to freed.

    Largest-remainder rounding first; any overflow beyond a layer's free
    slots is pushed to the remaining layers in descending-mu order. Sorts
    are stable, so ties fall back to layer order.
    """
    names = list(mu)
    ideal = {n: mu[n] * freed for n in names}
    quota = {n: min(int(ideal[n]), capacity[n]) for n in names}
    remainder = freed - sum(quota.values())
    for n in sorted(names, key=lambda n: -(ideal[n] - int(ideal[n]))):
        if remainder == 0:
            break
        if quota[n] < capacity[n]:
            quota[n] += 1
            remainder -= 1
    if remainder > 0:
        for n in sorted(names, key=lambda n: -mu[n]):
            take = min(remainder, capacity[n] - quota[n])
            quota[n] += take
            remainder -= take
            if remainder == 0:
                break
    if remainder != 0:
        raise ContractError("regrowth budget exceeds total inactive capacity")
    return quota


def prune_regrow_epoch(state: SparseState, model: Model, optimizer: SGD) -> SparseState:
    """One epoch boundary of irregular sparse learning.

    Per layer: deactivate the p_e fraction of active weights with smallest
    magnitude; then redistribute the freed global budget proportionally to
    the normalized momentum contribution and reactivate the inactive
    coordinates with the largest |velocity|. Regrown weights restart at
    zero with zeroed velocity. The global nonzero count is preserved
    exactly.
    """
    if state.mode != "irregular":
        raise ContractError(f"prune_regrow_epoch requires irregular mode, got {state.mode}")
    mu = state.finalize_epoch_momentum()
    if state.p_e <= 0.0:
        return state
    params = model.prunable(include_stem=state.include_stem)
    freed = 0
    for name, mask in state.masks.items():
        w = params[name].data.reshape(-1)
        flat = mask.reshape(-1)
        active = np.flatnonzero(flat)
        k = int(state.p_e * active.size)
        if k == 0:
            continue
        order = active[np.argsort(np.abs(w[active]), kind="stable")]
        drop = order[:k]
        flat[drop] = 0.0
        w[drop] = 0.0
        freed += k
    capacity = {n: int(m.size - np.count_nonzero(m)) for n, m in state.masks.items()}
    quota = _apportion(freed, mu, capacity)
    for name, mask in state.masks.items():
        q = quota[name]
        if q == 0:
            continue
        flat = mask.reshape(-1)
        v = optimizer.velocities[name].reshape(-1)
        inactive = np.flatnonzero(flat == 0)
        order = inactive[np.argsort(-np.abs(v[inactive]), kind="stable")]
        grow = order[:q]
        flat[grow] = 1.0
        params[name].data.reshape(-1)[grow] = 0.0
        v[grow] = 0.0
    apply_mask(state, model)
    if state.nonzero() != state.target_nonzero:
        raise ContractError("nonzero budget drifted during prune/regrow")
    return state


def column_prune_regrow_epoch(state: SparseState, model: Model, optimizer: SGD) -> SparseState:
    """Epoch boundary of column-structured sparse learning.

    Columns of the (C_out) x (C_in * k * k) matrix are pruned by smallest
    squared F-norm and regrown by largest momentum F-norm. The regrowth
    allocation follows the normalized momentum contribution in weight
    units, granting whole columns greedily while that reduces the gap to
    the global budget target; per-epoch rounding is corrected the next
    epoch because the allocation always aims at the fixed target. On
    return the nonzero count is within one column of the target (the
    largest row count of any layer), or ContractError is raised.
    """
    if state.mode != "column":
        raise ContractError(f"column_prune_regrow_epoch requires column mode, got {state.mode}")
    mu = state.finalize_epoch_momentum()
    if state.p_e <= 0.0:
        return _check_column_budget(state)
    params = model.prunable(include_stem=state.include_stem)
    for name, mask in state.masks.items():
        w_mat = _as_matrix(params[name].data)
        m_mat = _as_matrix(mask)
        active_cols = np.flatnonzero(m_mat[0] > 0)
        _check_uniform(m_mat)
        k = int(state.p_e * active_cols.size)
        if k == 0:
            continue
        scores = (w_mat[:, active_cols].astype(np.float64) ** 2).sum(axis=0)
        drop = active_cols[np.argsort(scores, kind="stable")[:k]]
        m_mat[:, drop] = 0.0
        w_mat[:, drop] = 0.0
    needed = max(0, state.target_nonzero - state.nonzero())
    rows = {n: _as_matrix(m).shape[0] for n, m in state.masks.items()}
    spare_cols = {n: int((_as_matrix(m)[0] == 0).sum()) for n, m in state.masks.items()}
    grant = {n: min(int(mu[n] * needed) // rows[n], spare_cols[n]) for n in state.masks}
    assigned = sum(grant[n] * rows[n] for n in grant)
    by_mu = sorted(state.masks, key=lambda n: -mu[n])
    progress = True
    while progress:
        progress = False
        for n in by_mu:
            # grant another column only while it shrinks the budget gap
            if grant[n] < spare_cols[n] and rows[n] < 2 * (needed - assigned):
                grant[n] += 1
                assigned += rows[n]
                progress = True
    for name, mask in state.masks.items():
        q = grant[name]
        if q == 0:
            continue
        m_mat = _as_matrix(mask)
        v_mat = _as_matrix(optimizer.velocities[name])
        w_mat = _as_matrix(params[name].data)
        inactive = np.flatnonzero(m_mat[0] == 0)
        vscores = (v_mat[:, inactive].astype(np.float64) ** 2).sum(axis=0)
        grow = inactive[np.argsort(-vscores, kind="stable")[:q]]
        m_mat[:, grow] = 1.0
        w_mat[:, grow] = 0.0
        v_mat[:, grow] = 0.0
    apply_mask(state, model)
    return _check_column_budget(state)


def _check_column_budget(state: SparseState) -> SparseState:
    gap = abs(state.target_nonzero - state.nonzero())
    column = max(_as_matrix(m).shape[0] for m in state.masks.values())
    if gap > column:
        raise ContractError(f"column budget drifted: {state.nonzero()} nonzero against a target of "
                            f"{state.target_nonzero}, more than one column ({column}) apart")
    return state


def _check_uniform(m_mat: np.ndarray):
    col_on = m_mat.sum(axis=0)
    if not np.all((col_on == 0) | (col_on == m_mat.shape[0])):
        raise ContractError("column mask lost its column-uniform structure")


def audit_coverage(state: SparseState, model: Model):
    """Every prunable tensor masked exactly once; exempt tensors unmasked."""
    prunable = model.prunable(include_stem=state.include_stem)
    if set(state.masks) != set(prunable):
        missing = set(prunable) - set(state.masks)
        extra = set(state.masks) - set(prunable)
        raise ContractError(f"mask coverage mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, mask in state.masks.items():
        if mask.shape != prunable[name].shape:
            raise ContractError(f"mask shape mismatch for {name}")
        vals = np.unique(mask)
        if not np.all(np.isin(vals, (0.0, 1.0))):
            raise ContractError(f"mask for {name} contains values other than 0/1")
