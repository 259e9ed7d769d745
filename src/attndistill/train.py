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

import ctypes
import glob
import math
import os
import time
from dataclasses import asdict
from types import SimpleNamespace

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
    spec_by_name,
    tap_pairs,
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


# the record table's prefixes, named as its errors name them
_NOUNS = {"param": "parameter", "buf": "buffer", "opt": "velocity"}
# the manifest's `sparse` record: these SparseState fields, no others
_SPARSE_KEYS = ("mode", "density", "prune_rate0", "target_nonzero", "include_stem")
# an rng stand-in whose draws are zeros, for a model whose every value is then loaded
_NO_DRAWS = SimpleNamespace(standard_normal=np.zeros, uniform=lambda low, high, size: np.zeros(size))


def _finite(v) -> bool:
    """An int or a finite float; a bool is neither."""
    return type(v) is int or (type(v) is float and math.isfinite(v))


def _records(model: Model, velocities: dict | None = None) -> dict:
    """Record name -> array: the one table a checkpoint is written from and read into."""
    records = {f"param.{n}": t.data for n, t in model.named_params().items()}
    records.update({f"buf.{n}": a for n, a in model.named_buffers().items()})
    records.update({f"opt.{n}": v for n, v in (velocities or {}).items()})
    return records


def save_model_checkpoint(path, model: Model, cfg: TrainConfig, kind: str, epoch: int,
                          phases, extra: dict | None = None,
                          state: S.SparseState | None = None,
                          optimizer: SGD | None = None):
    manifest = {
        "kind": kind,
        "epoch": epoch,
        "phases": list(phases),
        "config": cfg.to_dict(),
        "model_spec": asdict(model.spec),
        "sparse": None if state is None else {k: getattr(state, k) for k in _SPARSE_KEYS},
    }
    manifest.update(extra or {})
    save_checkpoint(path, manifest, _records(model, optimizer.velocities if optimizer else None),
                    state.masks if state else None)
    return path


def _restore(path, model: Model, manifest: dict, arrays: dict, masks: dict,
             opt: SGD | None = None) -> S.SparseState | None:
    """Copy a loaded checkpoint into `model` (and `opt`'s velocities, on
    resume) and rebuild its SparseState, None for a run without masks.
    Accepts exactly what `save_model_checkpoint` writes; anything else is
    a FormatError, raised before a single value is copied."""
    targets = _records(model, opt.velocities if opt else None)
    shapes = {key: a.shape for key, a in targets.items()}
    if opt is None and any(key.startswith("opt.") for key in arrays):
        # velocities are read only on resume; elsewhere they are only checked
        shapes.update({f"opt.{n}": t.shape for n, t in model.named_params().items()})
    for key, shape in shapes.items():
        kind, name = key.split(".", 1)
        if key not in arrays:
            raise FormatError(f"checkpoint {path} is missing {_NOUNS[kind]} {name}")
        if arrays[key].shape != shape:
            raise FormatError(f"checkpoint {_NOUNS[kind]} {name} has shape {arrays[key].shape}, "
                              f"expected {shape}")
    unknown = sorted(set(arrays) - set(shapes))
    if unknown:
        raise FormatError(f"checkpoint {path} holds unknown records {unknown}")
    meta, state = manifest.get("sparse"), None
    if meta is not None or masks:
        if (not isinstance(meta, dict) or sorted(meta) != sorted(_SPARSE_KEYS) or meta["mode"] not in S.MODES
                or not (_finite(meta["density"]) and 0 < meta["density"] <= 1)
                or not _finite(meta["prune_rate0"]) or type(meta["include_stem"]) is not bool
                or type(meta["target_nonzero"]) is not int or meta["target_nonzero"] < 0):
            raise FormatError(f"checkpoint {path} holds {len(masks)} masks and the sparse record {meta!r}")
        state = S.SparseState(masks=masks, **meta)
        try:
            S.audit_coverage(state, model)
            S._check_budget(state)
        except ContractError as e:
            raise FormatError(f"checkpoint {path}: {e}") from e
    for key, target in targets.items():
        np.copyto(target, arrays[key])
    return state


def model_from_checkpoint(path):
    """Rebuild a checkpoint's model; returns (model, manifest, masks, SparseState or None)."""
    manifest, arrays, masks = load_checkpoint(path)
    try:
        d = manifest["model_spec"]
        spec = ModelSpec(**dict(d, widths=tuple(d["widths"]), blocks=tuple(d["blocks"])))
    except (KeyError, TypeError, ConfigError) as e:
        raise FormatError(f"checkpoint {path} has no valid model_spec ({type(e).__name__}: {e})") from e
    model = build_model(spec, _NO_DRAWS)
    return model, manifest, masks, _restore(path, model, manifest, arrays, masks)


# --- evaluation ---


def evaluate_model(model: Model, dataset: D.Dataset, batch_size: int = 100,
                   state: S.SparseState | None = None) -> float:
    """Top-1 accuracy with eval-mode normalization statistics. A column-mode
    `state`'s masked weights multiply only their live columns (`S.compacted`)."""
    correct = 0
    with no_grad(), S.compacted(state, model):
        for xb, yb in D.batches(dataset, batch_size, seed=0, epoch=0, train=False):
            logits, _ = model.forward_with_taps(xb, training=False)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
    return correct / len(dataset)


def evaluate(ckpt_path, dataset: D.Dataset, batch_size: int = 100) -> float:
    """Accuracy of a checkpoint, with its masks applied to the weights."""
    model, _, _, state = model_from_checkpoint(ckpt_path)
    if state is not None:
        S.apply_mask(state, model)
    return evaluate_model(model, dataset, batch_size, state)


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


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # mallopt parameters, from glibc's malloc.h


def _keep_freed_heap():
    """Let glibc keep freed memory in this process's heap for reuse.

    Each step frees its whole graph, and the next step allocates the same
    sizes again. With glibc's defaults the freed pages go back to the OS
    (a trimmed heap top, munmapped large blocks) and fault in again on the
    next step. For this process only, it raises the trim threshold to 1
    GiB, fixes the mmap threshold at 32 MiB (glibc's ceiling) and keeps
    one arena, so `local_attention`'s second thread reuses this heap. Where
    `mallopt` cannot be found (not glibc) it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_ARENA_MAX, 1)


def _fit(cfg: TrainConfig, kind: str, model: Model, opt: SGD, dcfg: DistillConfig,
         train_ds, test_ds, teacher: Model | None = None, state: S.SparseState | None = None,
         start_epoch: int = 0, stop_after: int | None = None):
    """Train `model` from `start_epoch`; returns (checkpoint path, RunMetrics).

    The frozen `teacher` runs only when the loss reads it. A sparse `state`
    re-applies its mask after every step, prunes and regrows at every
    epoch boundary and saves the rolling `<kind>_last.atlt` each epoch,
    which `stop_after` returns once that many epochs have completed.

    A step's autodiff graph lives only in `step`'s locals: backward frees
    most of it node by node, and the rest (logits, taps, loss terms) goes
    when `step` returns, so no two steps' graphs coexist. The freed heap is
    kept for the next step (`_keep_freed_heap`).
    """
    label, phase = _RUNS[kind]
    need_teacher = teacher is not None and (dcfg.alpha < 1.0 or dcfg.beta > 0.0)
    pairs = tap_pairs(model.spec, teacher.spec) if need_teacher else []
    _keep_freed_heap()

    def step(xb, yb, epoch, t):
        """One optimizer step; returns the logged (total, ce, kd, at)."""
        logits_t, taps_t = None, []
        if need_teacher:
            with no_grad():
                logits_t, taps_t = teacher.forward_with_taps(xb, training=False)
            # the unpaired taps are freed before the student's graph is built
            taps_t = [taps_t[j] for _, j in pairs]
        logits, taps = model.forward_with_taps(xb, training=True)
        ce, kd, at = loss_terms(yb, logits, logits_t, [taps[i] for i, _ in pairs], taps_t, dcfg)
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
        return total, ce_v, kd_v, at_v

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
            for k, v in zip(sums, step(xb, yb, epoch, t)):
                sums[k] += v
            batches_seen += 1
        # accuracy reflects the state the epoch trained into; the boundary
        # mask update below prepares the *next* epoch, so the final epoch
        # keeps its trained topology
        acc = evaluate_model(model, test_ds, cfg.batch_size, state)
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
    tap_pairs(student_spec, teacher_spec)  # raises when the stage counts differ
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
    if type(epoch) is not int or epoch < 0:  # a bool is no epoch
        raise FormatError(f"resume checkpoint {path} records no epoch (got {epoch!r})")
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
    start_epoch, loaded = 0, None
    if resume is not None:
        loaded = load_checkpoint(resume)
        start_epoch = _resume_epoch(loaded[0], cfg, resume)
    # a resumed student takes every value from the file, so it draws none
    student = build_model(student_spec, _NO_DRAWS if loaded else np.random.default_rng([cfg.seed, 2]))
    opt = SGD(student.named_params(), cfg.lr, cfg.momentum, cfg.weight_decay)
    if loaded:
        state = _restore(resume, student, *loaded, opt)
        del loaded  # copied into the student and the optimizer; not held through the run
    else:
        state = S.init_mask(student, cfg.density, np.random.default_rng([cfg.seed, 3]),
                            mode=cfg.prune_mode, prune_rate0=cfg.prune_rate0,
                            include_stem=cfg.stem_prunable)
        S.audit_coverage(state, student)
        S.apply_mask(state, student)
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
    t_nz_flops, s_nz_flops = count_flops(teacher, t_masks), count_flops(student, s_masks)
    return {
        "teacher": {"params": t_total, "nonzero": t_nonzero, "flops": t_flops, "nonzero_flops": t_nz_flops},
        "student": {"params": s_total, "nonzero": s_nonzero, "flops": s_flops, "nonzero_flops": s_nz_flops},
        "param_ratio": t_nonzero / s_nonzero,
        "flops_ratio": t_flops / s_flops,
        "nonzero_flops_ratio": t_nz_flops / s_nz_flops,
    }


def format_report(r: dict) -> str:
    lines = [f"{k:<8} params {r[k]['params']:>12,}  nonzero {r[k]['nonzero']:>12,}  flops {r[k]['flops']:>14,}"
             f"  nonzero flops {r[k]['nonzero_flops']:>14,}" for k in ("teacher", "student")]
    lines.append(f"ratios   params(teacher/student nonzero) {r['param_ratio']:.2f}x  flops {r['flops_ratio']:.2f}x"
                 f"  nonzero flops {r['nonzero_flops_ratio']:.2f}x")
    return "\n".join(lines)
