"""Correctness checks the benchmark runs from outside the program.

Each function returns a list of problems; an empty list passes. A check
that finds problems counts as one failed operation in the run's result
(`failure` turns its problems into that one entry). A defect found this
way is reported, not worked around.
"""

from __future__ import annotations

import math

import numpy as np

from attndistill import train
from attndistill.sparse import _as_matrix

LOSS_COLUMNS = ("total_loss", "ce_loss", "kd_loss", "at_loss")


def failure(label: str, problems: list) -> list:
    """One failure entry for a check that found problems, none if it passed."""
    if not problems:
        return []
    more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
    return [f"{label}: " + "; ".join(problems[:3]) + more]


def finite_losses(csv_path) -> list:
    """Every loss logged in a metrics CSV is finite."""
    out = []
    for row in train.RunMetrics.read(csv_path):
        for col in LOSS_COLUMNS:
            if col in row and not math.isfinite(row[col]):
                out.append(f"{csv_path}: epoch {int(row['epoch'])} {col} is {row[col]}")
    return out


def mask_state(state) -> list:
    """Irregular masks hold exactly `target_nonzero` ones. Column masks stay
    column-uniform, and their budget gap is at most the largest prunable
    row count (one column of the widest layer)."""
    nonzero = state.nonzero()
    if state.mode == "irregular":
        if nonzero != state.target_nonzero:
            return [f"irregular nonzero {nonzero} != target {state.target_nonzero}"]
        return []
    out = []
    largest_rows = 0
    for name, mask in state.masks.items():
        mat = _as_matrix(mask)
        largest_rows = max(largest_rows, mat.shape[0])
        col_on = mat.sum(axis=0)
        if not np.all((col_on == 0) | (col_on == mat.shape[0])):
            out.append(f"column mask {name} is not column-uniform")
    gap = abs(state.target_nonzero - nonzero)
    if gap > largest_rows:
        out.append(f"column budget gap {gap} exceeds the largest row count {largest_rows}")
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def checkpoint_roundtrip(path, model, state=None) -> list:
    """The checkpoint reloads through `model_from_checkpoint` bit-identical
    to the in-memory parameters, buffers and masks."""
    loaded, _, masks, _ = train.model_from_checkpoint(path)
    out = []
    mine, theirs = model.named_params(), loaded.named_params()
    for name, t in mine.items():
        if not _same_bits(t.data, theirs[name].data):
            out.append(f"{path}: parameter {name} differs after reload")
    theirs_buf = loaded.named_buffers()
    for name, arr in model.named_buffers().items():
        if not _same_bits(arr, theirs_buf[name]):
            out.append(f"{path}: buffer {name} differs after reload")
    expected = state.masks if state is not None else {}
    if set(masks) != set(expected):
        out.append(f"{path}: mask names differ after reload")
    else:
        out += [f"{path}: mask {n} differs after reload"
                for n in expected if not _same_bits(expected[n], masks[n])]
    return out


def same_trajectory(csv_a, csv_b) -> list:
    """Two metrics CSVs agree in every column except `wall_time`."""
    with open(csv_a) as f:
        a = [line.rstrip("\n").split(",") for line in f]
    with open(csv_b) as f:
        b = [line.rstrip("\n").split(",") for line in f]
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return [f"{csv_b}: header or row count differs from {csv_a}"]
    keep = [i for i, col in enumerate(a[0]) if col != "wall_time"]
    return [f"{csv_b}: epoch row {r} differs from {csv_a}"
            for r, (ra, rb) in enumerate(zip(a[1:], b[1:]))
            if [ra[i] for i in keep] != [rb[i] for i in keep]]
