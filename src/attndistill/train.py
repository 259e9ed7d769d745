"""Teacher pretraining and single-pass sparse distillation, in one epoch loop.

There is exactly one training phase per run, and one loop (`_fit`) runs
it. A run may distill from a frozen teacher and may carry sparse masks;
both are optional. `train_teacher` fits the convolutional teacher as a
run with neither, under plain cross-entropy (alpha=1, beta=0).
`sparse_distill` trains the student once, distilling from the frozen
teacher and pruning and regrowing its masks at every epoch boundary. No
fine-tuning stage exists anywhere in this module.

Per-epoch metrics go to a CSV file (one row per completed epoch) whose
`density` column tracks the prunable-weight density (the budget d) and
whose `global_density` column tracks nonzero/total over all trainable
parameters. Under `deterministic`, wall times are recorded as 0 so two
identical runs produce byte-identical files.
"""

from __future__ import annotations

import glob
import math
import os
import time
from dataclasses import asdict

import numpy as np

from . import data as D
from . import sparse as S
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig
from .distill import DistillConfig, combine_terms, loss_terms
from .errors import ConfigError, ContractError, FormatError, TrainingDiverged
from .models import (
    Model,
    ModelSpec,
    build_model,
    count_flops,
    count_params,
    pair_taps,
    paired_teacher_blocks,
    spec_by_name,
)
from .optim import SGD
from .tensor import no_grad


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Step schedule: multiply by the drop factor after each drop epoch."""
    drops = sum(1 for d in cfg.lr_drops if epoch >= d)
    return cfg.lr * cfg.lr_drop_factor**drops


# --- metrics ---


class RunMetrics:
    """Per-epoch rows written as a diffable CSV with a fixed header."""

    BASE_COLUMNS = (
        "epoch", "lr", "total_loss", "ce_loss", "kd_loss", "at_loss",
        "test_acc", "density", "global_density", "wall_time",
    )

    def __init__(self, layer_names=()):
        self.layer_columns = tuple(f"d:{n}" for n in layer_names)
        self.rows = []

    @property
    def columns(self):
        return self.BASE_COLUMNS + self.layer_columns

    def add_row(self, **values):
        row = {c: values.get(c, 0.0) for c in self.columns}
        self.rows.append(row)

    @staticmethod
    def _fmt(col, v):
        return str(int(v)) if col == "epoch" else format(float(v), ".8g")

    def write(self, path):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            f.write(",".join(self.columns) + "\n")
            for row in self.rows:
                f.write(",".join(self._fmt(c, row[c]) for c in self.columns) + "\n")
        os.replace(tmp, path)

    @staticmethod
    def read(path):
        with open(path) as f:
            header = f.readline().strip().split(",")
            rows = []
            for line in f:
                vals = line.strip().split(",")
                rows.append({c: float(v) for c, v in zip(header, vals)})
        return rows


# --- datasets ---


def load_datasets(cfg: TrainConfig):
    if cfg.dataset == "synthetic":
        # one pool so train and test share the class templates; the
        # round-robin labels keep both splits balanced
        pool = D.synthetic_dataset(cfg.synth_train + cfg.synth_test, cfg.classes, cfg.seed + 1000)
        train = D.Dataset(pool.images[: cfg.synth_train], pool.labels[: cfg.synth_train], cfg.classes)
        test = D.Dataset(pool.images[cfg.synth_train :], pool.labels[cfg.synth_train :], cfg.classes)
        return train, test
    if not cfg.data_dir:
        raise ConfigError(f"dataset {cfg.dataset!r} requires --data-dir")
    if cfg.dataset == "cifar10":
        train_files = sorted(glob.glob(os.path.join(cfg.data_dir, "data_batch_*.bin")))
        test_files = [os.path.join(cfg.data_dir, "test_batch.bin")]
    else:
        train_files = [os.path.join(cfg.data_dir, "train.bin")]
        test_files = [os.path.join(cfg.data_dir, "test.bin")]
    if not train_files:
        raise FileNotFoundError(f"no training files for {cfg.dataset} under {cfg.data_dir}")
    parts = [D.load_cifar_binary(p, cfg.classes) for p in train_files]
    train = D.Dataset(
        np.concatenate([p.images for p in parts]),
        np.concatenate([p.labels for p in parts]),
        cfg.classes,
    )
    test = D.load_cifar_binary(test_files[0], cfg.classes)
    return train, test


# --- checkpoint plumbing ---


def _spec_dict(spec: ModelSpec) -> dict:
    d = asdict(spec)
    d["widths"] = list(spec.widths)
    d["blocks"] = list(spec.blocks)
    return d


def _spec_from_dict(d: dict) -> ModelSpec:
    d = dict(d)
    d["widths"] = tuple(d["widths"])
    d["blocks"] = tuple(d["blocks"])
    return ModelSpec(**d)


def save_model_checkpoint(path, model: Model, cfg: TrainConfig, kind: str, epoch: int,
                          phases, extra: dict | None = None,
                          state: S.SparseState | None = None,
                          optimizer: SGD | None = None):
    manifest = {
        "kind": kind,
        "epoch": epoch,
        "phases": list(phases),
        "config": cfg.to_dict(),
        "model_spec": _spec_dict(model.spec),
        "sparse": None,
    }
    if state is not None:
        manifest["sparse"] = {
            "mode": state.mode,
            "density": state.density,
            "prune_rate0": state.prune_rate0,
            "target_nonzero": state.target_nonzero,
            "include_stem": state.include_stem,
        }
    manifest.update(extra or {})
    arrays = {f"param.{n}": t.data for n, t in model.named_params().items()}
    arrays.update({f"buf.{n}": a for n, a in model.named_buffers().items()})
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
    save_checkpoint(path, manifest, arrays, state.masks if state else None)
    return path


def _copy_arrays(model: Model, arrays: dict, path):
    """Copy a checkpoint's parameters (all required) and buffers into `model`."""
    for name, t in model.named_params().items():
        key = f"param.{name}"
        if key not in arrays:
            raise ContractError(f"checkpoint {path} is missing parameter {name}")
        if arrays[key].shape != t.shape:
            raise ContractError(f"checkpoint parameter {name} has shape {arrays[key].shape}, expected {t.shape}")
        np.copyto(t.data, arrays[key])
    for name, buf in model.named_buffers().items():
        key = f"buf.{name}"
        if key in arrays:
            np.copyto(buf, arrays[key])


def model_from_checkpoint(path):
    """Rebuild the model (and masks, if any) stored in a checkpoint."""
    manifest, arrays, masks = load_checkpoint(path)
    try:
        spec = _spec_from_dict(manifest["model_spec"])
    except (KeyError, TypeError) as e:
        raise FormatError(f"checkpoint {path} has no valid model_spec ({type(e).__name__}: {e})") from e
    model = build_model(spec, np.random.default_rng(0))
    _copy_arrays(model, arrays, path)
    return model, manifest, masks, arrays


def _restore_sparse_state(manifest, masks) -> S.SparseState:
    meta = manifest["sparse"]
    state = S.SparseState(
        mode=meta["mode"],
        density=meta["density"],
        prune_rate0=meta["prune_rate0"],
        include_stem=meta["include_stem"],
    )
    state.masks = dict(masks)
    state.target_nonzero = meta["target_nonzero"]
    return state


# --- evaluation ---


def evaluate_model(model: Model, dataset: D.Dataset, batch_size: int = 100) -> float:
    """Top-1 accuracy with eval-mode normalization statistics."""
    correct = 0
    with no_grad():
        for xb, yb in D.batches(dataset, batch_size, seed=0, epoch=0, train=False):
            logits, _ = model.forward_with_taps(xb, training=False)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
    return correct / len(dataset)


def evaluate(ckpt_path, dataset: D.Dataset, batch_size: int = 100) -> float:
    """Accuracy of a checkpoint, with its masks applied to the weights."""
    model, manifest, masks, _ = model_from_checkpoint(ckpt_path)
    if masks:
        state = _restore_sparse_state(manifest, masks)
        S.apply_mask(state, model)
    return evaluate_model(model, dataset, batch_size)


# --- the epoch loop ---


_CE_ONLY = DistillConfig(alpha=1.0, beta=0.0)

# kind of run -> (metrics file and progress-line label, manifest phase)
_RUNS = {"teacher": ("teacher", "teacher-train"), "student": ("distill", "sparse-distill")}


def _density_metrics(model: Model, state: S.SparseState | None):
    if state is None:
        return 1.0, 1.0, {}
    total, nonzero = count_params(model, state.masks)
    prunable = sum(m.size for m in state.masks.values())
    return state.nonzero() / prunable, nonzero / total, state.layer_densities()


def _fit(cfg: TrainConfig, kind: str, model: Model, opt: SGD, dcfg: DistillConfig,
         train_ds, test_ds, teacher: Model | None = None, state: S.SparseState | None = None,
         start_epoch: int = 0, stop_after: int | None = None):
    """Train `model` from `start_epoch`; returns (checkpoint path, RunMetrics).

    The frozen `teacher` runs only when the loss reads it. A sparse `state`
    re-applies its mask after every step, prunes and regrows at every
    epoch boundary and saves the rolling `<kind>_last.atlt` each epoch,
    which `stop_after` returns once that many epochs have completed.
    """
    label, phase = _RUNS[kind]
    need_teacher = teacher is not None and (dcfg.alpha < 1.0 or dcfg.beta > 0.0)
    teacher_blocks = paired_teacher_blocks(model.spec, teacher.spec) if need_teacher else set()
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics = RunMetrics(layer_names=state.layer_names if state else ())
    metrics_path = os.path.join(cfg.out_dir, f"{label}_metrics.csv")
    last_path = os.path.join(cfg.out_dir, f"{kind}_last.atlt")
    acc = 0.0
    for epoch in range(start_epoch, cfg.epochs):
        opt.lr = lr_at(cfg, epoch)
        t0 = time.monotonic()
        sums = {"total": 0.0, "ce": 0.0, "kd": 0.0, "at": 0.0}
        batches_seen = 0
        for t, (xb, yb) in enumerate(D.batches(train_ds, cfg.batch_size, cfg.seed, epoch)):
            logits_t, taps_t = None, []
            if need_teacher:
                with no_grad():
                    logits_t, taps_t = teacher.forward_with_taps(xb, training=False)
                # the unpaired taps are freed before the student's graph is built
                taps_t = [tap for tap in taps_t if (tap.stage, tap.block) in teacher_blocks]
            logits, taps = model.forward_with_taps(xb, training=True)
            pairs = pair_taps(taps, taps_t) if need_teacher else []
            ce, kd, at = loss_terms(yb, logits, logits_t, [p[0].value for p in pairs],
                                    [p[1].value for p in pairs], dcfg)
            loss = combine_terms(ce, kd, at, dcfg)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(epoch, t, value)
            opt.zero_grad()
            loss.backward()
            opt.step()
            if state is not None:
                S.apply_mask(state, model)
                state.accumulate_momentum(opt)
            # the logged total recombines the logged components in float64,
            # so it does not carry the float32 rounding of `loss`
            ce_v, kd_v, at_v = (0.0 if v is None else v.item() for v in (ce, kd, at))
            total = dcfg.alpha * ce_v + (1.0 - dcfg.alpha) * kd_v + dcfg.beta / 2.0 * at_v
            for k, v in zip(sums, (total, ce_v, kd_v, at_v)):
                sums[k] += v
            batches_seen += 1
        # accuracy reflects the state the epoch trained into; the boundary
        # mask update below prepares the *next* epoch, so the final epoch
        # keeps its trained topology
        acc = evaluate_model(model, test_ds, cfg.batch_size)
        if state is not None and epoch < cfg.epochs - 1:
            state.p_e = S.decay_prune_rate(cfg.prune_rate0, epoch, cfg.epochs)
            boundary = S.prune_regrow_epoch if state.mode == "irregular" else S.column_prune_regrow_epoch
            boundary(state, model, opt)
        elif state is not None:
            state.finalize_epoch_momentum()
        density, global_density, layer_d = _density_metrics(model, state)
        wall = 0.0 if cfg.deterministic else time.monotonic() - t0
        mean = {k: v / batches_seen for k, v in sums.items()}
        metrics.add_row(epoch=epoch, lr=opt.lr, total_loss=mean["total"], ce_loss=mean["ce"],
                        kd_loss=mean["kd"], at_loss=mean["at"], test_acc=acc, density=density,
                        global_density=global_density, wall_time=wall,
                        **{f"d:{n}": d for n, d in layer_d.items()})
        metrics.write(metrics_path)
        if state is not None:
            save_model_checkpoint(last_path, model, cfg, kind, epoch + 1, phases=[phase],
                                  state=state, optimizer=opt)
        print(f"[{label}] epoch {epoch + 1}/{cfg.epochs} loss {mean['total']:.4f} "
              f"acc {acc:.4f} density {density:.4f}")
        if stop_after is not None and epoch + 1 >= stop_after:
            return last_path, metrics
    ckpt = os.path.join(cfg.out_dir, f"{kind}.atlt")
    # only sparse runs resume, so only they store the optimizer state
    save_model_checkpoint(ckpt, model, cfg, kind, cfg.epochs, phases=[phase],
                          extra={"final_acc": acc}, state=state,
                          optimizer=opt if state is not None else None)
    return ckpt, metrics


# --- training entry points ---


def train_teacher(cfg: TrainConfig):
    """Cross-entropy training of the convolutional teacher: the epoch loop
    with no teacher and no masks. Returns (checkpoint path, RunMetrics)."""
    train_ds, test_ds = load_datasets(cfg)
    spec = spec_by_name(cfg.depth, "teacher", "conv", cfg.classes, cfg.extent, cfg.heads)
    model = build_model(spec, np.random.default_rng([cfg.seed, 1]))
    opt = SGD(model.named_params(), cfg.lr, cfg.momentum, cfg.weight_decay)
    return _fit(cfg, "teacher", model, opt, _CE_ONLY, train_ds, test_ds)


def _check_tap_compatibility(teacher_spec: ModelSpec, student_spec: ModelSpec):
    if len(teacher_spec.blocks) != len(student_spec.blocks):
        raise ConfigError("teacher and student stage counts differ; taps cannot pair")
    if teacher_spec.input_hw != student_spec.input_hw:
        raise ConfigError("teacher and student input resolutions differ")
    if teacher_spec.classes != student_spec.classes:
        raise ConfigError("teacher and student class counts differ")


# config fields a resumed run may change: they move no part of the trajectory
_RESUME_FREE = ("out_dir", "data_dir", "deterministic")


def _resume_epoch(manifest: dict, cfg: TrainConfig, path) -> int:
    """The epoch to resume from; refuses a checkpoint that is not an
    unfinished student run of `cfg`."""
    if manifest.get("kind") != "student":
        raise ConfigError(f"resume checkpoint {path} is a {manifest.get('kind')!r} checkpoint, "
                          "not a student")
    stored, now = manifest.get("config"), cfg.to_dict()
    if not isinstance(stored, dict):
        raise ConfigError(f"resume checkpoint {path} records no run config")
    differ = [f"{k} {stored.get(k)!r} -> {now.get(k)!r}" for k in sorted(set(stored) | set(now))
              if k not in _RESUME_FREE and stored.get(k) != now.get(k)]
    if differ:
        raise ConfigError(f"resume checkpoint {path} is from a different run: {', '.join(differ)}")
    epoch = manifest.get("epoch")
    if not isinstance(epoch, int):
        raise FormatError(f"resume checkpoint {path} records no epoch")
    if epoch >= cfg.epochs:
        raise ConfigError(f"resume checkpoint {path} has finished all {cfg.epochs} epochs")
    return epoch


def sparse_distill(cfg: TrainConfig, teacher_ckpt, resume=None, stop_after=None):
    """Single-pass sparse distillation of a student against a frozen
    teacher: the epoch loop with both. Returns (checkpoint path, RunMetrics).

    `resume` continues from a rolling per-epoch checkpoint of the same run
    (the config may differ only in `out_dir`, `data_dir` and
    `deterministic`); `stop_after` interrupts the run once that many
    epochs have completed (the rolling checkpoint then resumes it), which
    is how resumability is exercised.
    """
    train_ds, test_ds = load_datasets(cfg)
    teacher, t_manifest, _, _ = model_from_checkpoint(teacher_ckpt)
    if t_manifest.get("kind") != "teacher":
        raise ConfigError(f"--teacher checkpoint {teacher_ckpt} is a {t_manifest.get('kind')!r} "
                          "checkpoint, not a teacher")
    student_spec = spec_by_name(cfg.depth, "student", cfg.variant, cfg.classes,
                                cfg.extent, cfg.heads, cfg.pos_scale)
    _check_tap_compatibility(teacher.spec, student_spec)
    student = build_model(student_spec, np.random.default_rng([cfg.seed, 2]))
    state = S.init_mask(student, cfg.density, np.random.default_rng([cfg.seed, 3]),
                        mode=cfg.prune_mode, prune_rate0=cfg.prune_rate0,
                        include_stem=cfg.stem_prunable)
    S.audit_coverage(state, student)
    S.apply_mask(state, student)
    opt = SGD(student.named_params(), cfg.lr, cfg.momentum, cfg.weight_decay)
    start_epoch = 0
    if resume is not None:
        manifest, arrays, masks = load_checkpoint(resume)
        start_epoch = _resume_epoch(manifest, cfg, resume)
        _copy_arrays(student, arrays, resume)
        opt.load_state_arrays(arrays)
        state = _restore_sparse_state(manifest, masks)
    return _fit(cfg, "student", student, opt, cfg.distill_config(), train_ds, test_ds,
                teacher=teacher, state=state, start_epoch=start_epoch, stop_after=stop_after)


# --- accounting report ---


def report(teacher_ckpt, student_ckpt) -> dict:
    """Parameter and FLOP accounting for a (teacher, student) pair."""
    teacher, _, t_masks, _ = model_from_checkpoint(teacher_ckpt)
    student, _, s_masks, _ = model_from_checkpoint(student_ckpt)
    t_total, t_nonzero = count_params(teacher, t_masks or None)
    s_total, s_nonzero = count_params(student, s_masks or None)
    t_flops, s_flops = count_flops(teacher), count_flops(student)
    return {
        "teacher": {"params": t_total, "nonzero": t_nonzero, "flops": t_flops},
        "student": {"params": s_total, "nonzero": s_nonzero, "flops": s_flops},
        "param_ratio": t_nonzero / s_nonzero,
        "flops_ratio": t_flops / s_flops,
    }


def format_report(r: dict) -> str:
    lines = [
        f"teacher  params {r['teacher']['params']:>12,}  nonzero {r['teacher']['nonzero']:>12,}  flops {r['teacher']['flops']:>14,}",
        f"student  params {r['student']['params']:>12,}  nonzero {r['student']['nonzero']:>12,}  flops {r['student']['flops']:>14,}",
        f"ratios   params(teacher/student nonzero) {r['param_ratio']:.2f}x  flops {r['flops_ratio']:.2f}x",
    ]
    return "\n".join(lines)
