"""Single-pass sparse training: masked weights with epoch-end prune/regrow.

Masks are bool arrays, initialized randomly at the target density and
updated once per epoch. Both prune modes run the same boundary on a unit
view of every prunable weight (`_units`): a matrix whose columns are the
units switched on and off together. In irregular mode a unit is one
scalar (a single row holding the flattened weight); in column mode it is
one column of the (C_out) x (C_in * k * k) weight matrix (attention
projections count their output dimension as rows). A unit's score is its
squared L2 norm.

At a boundary each layer drops the p_e fraction of its active units with
the smallest weight score. The budget this frees is split across layers in
proportion to the momentum each layer's active weights contributed during
the epoch, and each layer regrows the inactive units with the largest
momentum score; regrown weights start at zero with a zeroed velocity.
Only the split differs between the modes: irregular mode apportions exact
scalar counts, column mode grants whole columns and so stays within one
column of the budget. `_check_budget` checks the budget, and that column
masks stay column-uniform, at both ends of every boundary and at every
checkpoint load. The prune rate decays linearly to zero over training,
so the mask settles while the budget stays constant. All sorts are
stable, so ties fall back to index order and trajectories are exactly
reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .models import Model
from .optim import SGD

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


def _units(arr: np.ndarray, mode: str) -> np.ndarray:
    """A view of `arr` whose columns are the units of `mode`: one row of
    scalars in irregular mode, the `_as_matrix` columns in column mode."""
    return arr.reshape(1, -1) if mode == "irregular" else _as_matrix(arr)


def _scores(units: np.ndarray) -> np.ndarray:
    """Squared L2 norm of every unit (column), summed in float64. A float32
    value squared in float64 is exact, so one-row units rank as |value|."""
    return (units.astype(np.float64) ** 2).sum(axis=0)


def decay_prune_rate(p0: float, epoch: int, total_epochs: int) -> float:
    """Linear decay: p0 * (1 - e/E)."""
    if not 0 <= epoch < total_epochs:
        raise ContractError(f"epoch {epoch} outside [0, {total_epochs})")
    return p0 * (1.0 - epoch / total_epochs)


@dataclass
class SparseState:
    mode: str
    prune_rate0: float
    masks: dict = field(default_factory=dict)  # name -> bool array, weight-shaped
    target_nonzero: int = 0
    p_e: float = 0.0
    include_stem: bool = True
    _mu_sum: dict = field(default_factory=dict, repr=False)
    _mu_batches: int = 0

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
            contrib = float(np.abs(v[mask]).mean()) if mask.any() else 0.0
            self._mu_sum[name] = self._mu_sum.get(name, 0.0) + contrib
        self._mu_batches += 1

    def finalize_epoch_momentum(self) -> dict:
        """Normalize the epoch's running means to sum 1 and reset them.

        A fully degenerate epoch (all-zero momentum) distributes uniformly.
        """
        names = list(self.masks)
        raw = {n: self._mu_sum.get(n, 0.0) / max(self._mu_batches, 1) for n in names}
        total = sum(raw.values())
        self._mu_sum = {}
        self._mu_batches = 0
        if total <= 0.0:
            return {n: 1.0 / len(names) for n in names}
        return {n: raw[n] / total for n in names}


def init_mask(model: Model, density: float, rng, mode: str = "irregular",
              prune_rate0: float = 0.5, include_stem: bool = True) -> SparseState:
    """Random masks at the target density: round(d * n_units) units per layer."""
    if not 0.0 < density <= 1.0:
        raise ConfigError(f"density must be in (0, 1], got {density}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    state = SparseState(mode=mode, prune_rate0=prune_rate0, include_stem=include_stem)
    for name, p in model.prunable(include_stem=include_stem).items():
        mask = np.zeros(p.shape, dtype=bool)
        units = _units(mask, mode)
        n_units = units.shape[1]
        units[:, rng.choice(n_units, size=int(round(density * n_units)), replace=False)] = True
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


def _apportion(needed: int, mu: dict, spare: dict, rows: dict) -> dict:
    """Irregular rule: integer quotas proportional to mu, capped by spare,
    summing to needed. A unit is one scalar, so `rows` is all ones.

    Largest-remainder rounding first; any overflow beyond a layer's free
    slots is pushed to the remaining layers in descending-mu order. Sorts
    are stable, so ties fall back to layer order.
    """
    names = list(mu)
    ideal = {n: mu[n] * needed for n in names}
    quota = {n: min(int(ideal[n]), spare[n]) for n in names}
    remainder = needed - sum(quota.values())
    for n in sorted(names, key=lambda n: -(ideal[n] - int(ideal[n]))):
        if remainder == 0:
            break
        if quota[n] < spare[n]:
            quota[n] += 1
            remainder -= 1
    for n in sorted(names, key=lambda n: -mu[n]):
        take = min(remainder, spare[n] - quota[n])
        quota[n] += take
        remainder -= take
    return quota


def _grant_columns(needed: int, mu: dict, spare: dict, rows: dict) -> dict:
    """Column rule: whole columns in proportion to mu in weight units, then
    one more column at a time, in descending-mu order, while that shrinks
    the gap to `needed`. Rounding left this epoch is corrected the next,
    because `needed` always aims at the fixed target."""
    grant = {n: min(int(mu[n] * needed) // rows[n], spare[n]) for n in mu}
    assigned = sum(grant[n] * rows[n] for n in grant)
    by_mu = sorted(mu, key=lambda n: -mu[n])
    progress = True
    while progress:
        progress = False
        for n in by_mu:
            if grant[n] < spare[n] and rows[n] < 2 * (needed - assigned):
                grant[n] += 1
                assigned += rows[n]
                progress = True
    return grant


def prune_regrow_epoch(state: SparseState, model: Model, optimizer: SGD) -> SparseState:
    """Epoch boundary of irregular sparse learning; keeps the budget exactly."""
    return _boundary(state, model, optimizer, "irregular", _apportion)


def column_prune_regrow_epoch(state: SparseState, model: Model, optimizer: SGD) -> SparseState:
    """Epoch boundary of column sparse learning; keeps the budget within one column
    of the layer with the most rows."""
    return _boundary(state, model, optimizer, "column", _grant_columns)


def _boundary(state: SparseState, model: Model, optimizer: SGD, mode: str, allocate) -> SparseState:
    """Prune, allocate and regrow units (see the module docstring).

    Per layer: deactivate the p_e fraction of active units with the
    smallest weight norm. `allocate(needed, mu, spare, rows)` then splits
    the budget the pruning freed into per-layer unit counts, and each layer
    reactivates the inactive units with the largest momentum norm, at zero
    weight and zero velocity. `_check_budget` runs before anything changes
    and again on return.
    """
    if state.mode != mode:
        raise ContractError(f"a {mode} boundary requires {mode} mode, got {state.mode}")
    _check_budget(state)
    mu = state.finalize_epoch_momentum()
    if state.p_e <= 0.0:
        return state
    params = model.prunable(include_stem=state.include_stem)
    units = {n: _units(mask, mode) for n, mask in state.masks.items()}
    for name, m in units.items():
        w = _units(params[name].data, mode)
        active = np.flatnonzero(m[0])
        k = int(state.p_e * active.size)
        if k == 0:
            continue
        drop = active[np.argsort(_scores(w[:, active]), kind="stable")[:k]]
        m[:, drop] = False
        w[:, drop] = 0.0
    needed = max(0, state.target_nonzero - state.nonzero())
    quota = allocate(needed, mu, {n: m.shape[1] - np.count_nonzero(m[0]) for n, m in units.items()},
                     {n: m.shape[0] for n, m in units.items()})
    for name, m in units.items():
        if quota[name] == 0:
            continue
        w, v = _units(params[name].data, mode), _units(optimizer.velocities[name], mode)
        inactive = np.flatnonzero(~m[0])
        grow = inactive[np.argsort(-_scores(v[:, inactive]), kind="stable")[:quota[name]]]
        m[:, grow] = True
        w[:, grow] = 0.0
        v[:, grow] = 0.0
    apply_mask(state, model)
    return _check_budget(state)


def _check_budget(state: SparseState) -> SparseState:
    """Irregular masks hold exactly `target_nonzero` ones; column masks are
    column-uniform and miss it by at most one column of the widest layer."""
    allowed = 0
    if state.mode == "column":
        for name, m in state.masks.items():
            mat = _as_matrix(m)
            if (mat != mat[0]).any():
                raise ContractError(f"column mask {name} is not column-uniform")
            allowed = max(allowed, mat.shape[0])
    if abs(state.target_nonzero - state.nonzero()) > allowed:
        raise ContractError(f"{state.mode} budget drifted: {state.nonzero()} nonzero against a target "
                            f"of {state.target_nonzero}, more than {allowed} apart")
    return state


@contextmanager
def compacted(state: SparseState | None, model: Model):
    """Column mode: for the `with` body, give each masked layer the live
    `_as_matrix` columns of its weights (those with any mask entry 1) and
    the weight matrix on them, so its forward multiplies only those. A
    layer with no dead column gets nothing and keeps its dense GEMM; in an
    attention layer with some, a projection with none takes all its
    columns, as views. Built once, on entry, and removed on exit, also
    when the body raises; any other state gives nothing. The primitives
    refuse them while a graph is recorded: training keeps dense gradients
    for regrowth."""
    live = {}
    if state is not None and state.mode == "column":
        live = {n: _as_matrix(m).any(axis=0) for n, m in state.masks.items()}
    partial = {n.rsplit(".", 1)[0] for n, cols in live.items() if not cols.all()}
    layers, params = dict(model.named_layers()), model.named_params()
    try:
        for name, cols in live.items():
            prefix, weight = name.rsplit(".", 1)
            if prefix in partial:
                idx = slice(None) if cols.all() else np.flatnonzero(cols)
                layers[prefix].live[weight] = (idx, _as_matrix(params[name].data)[:, idx])
        yield
    finally:
        for prefix in partial:
            layers[prefix].live.clear()


def audit_coverage(state: SparseState, model: Model):
    """Every prunable tensor masked once, by a bool array of its shape; exempt tensors unmasked."""
    prunable = model.prunable(include_stem=state.include_stem)
    missing, extra = set(prunable) - set(state.masks), set(state.masks) - set(prunable)
    if missing or extra:
        raise ContractError(f"mask coverage mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, mask in state.masks.items():
        if mask.shape != prunable[name].shape or mask.dtype != bool:
            raise ContractError(f"mask for {name} is {mask.dtype} {mask.shape}, "
                                f"expected bool {prunable[name].shape}")
