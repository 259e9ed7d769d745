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
import hashlib
import math
import os
import time
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np

from . import data as D
from . import sparse as S
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .config import TrainConfig
from .distill import DistillConfig, combine_terms, loss_terms
from .errors import ConfigError, ContractError, FormatError, NumericError, TrainingDiverged
from .models import (
    Model,
    ModelSpec,
    build_model,
    count_flops,
    count_params,
    spec_by_name,
)
from .optim import SGD
from .tensor import no_grad


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Step schedule: `cfg.lr`, multiplied by 0.1 at each `cfg.lr_drops` epoch."""
    drops = sum(1 for d in cfg.lr_drops if epoch >= d)
    return cfg.lr * 0.1**drops


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
        with atomic_write(path, "w") as f:
            f.write(",".join(self.columns) + "\n")
            for row in self.rows:
                f.write(",".join(self._fmt(c, row[c]) for c in self.columns) + "\n")

    @staticmethod
    def read(path):
        with open(path) as f:
            header = f.readline().strip().split(",")
            rows = []
            for n, line in enumerate(f, 2):
                values = line.strip().split(",")
                if len(values) != len(header):
                    raise FormatError(f"metrics file {path} line {n}: {len(values)} fields, header has {len(header)}")
                try:
                    rows.append({c: float(v) for c, v in zip(header, values)})
                except ValueError as e:
                    raise FormatError(f"metrics file {path} line {n}: {e}") from e
        return rows


# --- datasets ---


def load_datasets(cfg: TrainConfig, train: bool = True):
    """(train, test) splits of `cfg.dataset`; with `train=False` the first is
    None and no CIFAR training file is read."""
    if cfg.dataset == "synthetic":
        # one pool so train and test share the class templates; the
        # round-robin labels keep both splits balanced
        pool = D.synthetic_dataset(cfg.synth_train + cfg.synth_test, cfg.classes, cfg.seed + 1000)
        n = cfg.synth_train
        test = D.Dataset(pool.images[n:], pool.labels[n:], cfg.classes)
        return (D.Dataset(pool.images[:n], pool.labels[:n], cfg.classes) if train else None), test
    if not cfg.data_dir:
        raise ConfigError(f"dataset {cfg.dataset!r} requires --data-dir")
    cifar10 = cfg.dataset == "cifar10"
    train_ds = None
    if train:
        train_files = (sorted(glob.glob(os.path.join(cfg.data_dir, "data_batch_*.bin"))) if cifar10
                       else [os.path.join(cfg.data_dir, "train.bin")])
        if not train_files:
            raise FileNotFoundError(f"no training files for {cfg.dataset} under {cfg.data_dir}")
        parts = [D.load_cifar_binary(p, cfg.classes) for p in train_files]
        train_ds = D.Dataset(np.concatenate([p.images for p in parts]),
                             np.concatenate([p.labels for p in parts]), cfg.classes)
    test_file = os.path.join(cfg.data_dir, "test_batch.bin" if cifar10 else "test.bin")
    return train_ds, D.load_cifar_binary(test_file, cfg.classes)


# --- checkpoint plumbing ---


# the record table's prefixes, named as its errors name them
_NOUNS = {"param": "parameter", "buf": "buffer", "opt": "velocity"}
# the manifest's `sparse` record: these SparseState fields, no others
_SPARSE_KEYS = ("mode", "prune_rate0", "target_nonzero", "include_stem")
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


def _model_of_role(path, role: str, flag: str):
    """`model_from_checkpoint` of the checkpoint passed as `flag`, which must hold a `role`."""
    loaded = model_from_checkpoint(path)
    if loaded[0].spec.role != role:
        raise ConfigError(f"{flag} checkpoint {path} is a {loaded[0].spec.role!r} checkpoint, not a {role}")
    return loaded


# --- evaluation ---


def evaluate_model(model: Model, dataset: D.Dataset, batch_size: int = 100,
                   state: S.SparseState | None = None) -> float:
    """Top-1 accuracy with eval-mode normalization statistics. A column-mode
    `state`'s masked weights multiply only their live columns (`S.compacted`).
    Refuses a dataset whose class count is not the model's."""
    if dataset.classes != model.spec.classes:
        raise ConfigError(f"dataset has {dataset.classes} classes, the model {model.spec.classes}")
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


def _fit(cfg: TrainConfig, model: Model, opt: SGD, train_ds, test_ds, teacher: Model | None = None,
         teacher_sha256: str | None = None, state: S.SparseState | None = None, start_epoch: int = 0):
    """Train `model` from `start_epoch`; returns (checkpoint path, RunMetrics).

    With a frozen `teacher` the loss is `cfg`'s, else plain cross-entropy;
    the teacher runs only when the loss reads it, and every checkpoint
    records `teacher_sha256`, the sha256 of the teacher's checkpoint file.
    A sparse `state` re-applies its mask after every step. While an epoch
    follows, it prunes and regrows at the boundary and saves the rolling
    `<kind>_last.atlt` with the velocities a resume reads; the final
    `<kind>.atlt` holds none. A resume into its run's own `out_dir` keeps
    the rows of the epochs before it.

    A step's autodiff graph lives only in `step`'s locals: backward frees
    most of it node by node, and the rest (logits, taps, loss terms) goes
    when `step` returns, so no two steps' graphs coexist. A step drops the
    last step's gradients before its forward, and the teacher's logits and
    taps once the loss terms are built, so neither lives through its graph
    or its backward.
    """
    kind = model.spec.role
    label, phase = _RUNS[kind]
    dcfg = cfg if teacher is not None else _CE_ONLY
    need_teacher = teacher is not None and (dcfg.alpha < 1.0 or dcfg.beta > 0.0)
    provenance = {} if teacher_sha256 is None else {"teacher_sha256": teacher_sha256}

    def step(xb, yb, epoch, t):
        """One optimizer step; returns the logged (total, ce, kd, at)."""
        opt.zero_grad()  # the last step's gradients go before this step's graph is built
        logits_t, taps_t = None, []
        if need_teacher:
            with no_grad():
                logits_t, taps_t = teacher.forward_with_taps(xb, training=False)
        logits, taps = model.forward_with_taps(xb, training=True)
        ce, kd, at = loss_terms(yb, logits, logits_t, taps, taps_t, dcfg)
        del logits_t, taps_t  # KD and AT keep only arrays derived from them
        loss = combine_terms(ce, kd, at, dcfg)
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(epoch, t, value)
        loss.backward()
        opt.step()
        if state is not None:
            S.apply_mask(state, model)
            if epoch < cfg.epochs - 1:  # only a boundary reads the momentum statistics
                state.accumulate_momentum(opt)
        # the logged total recombines the logged components in float64,
        # so it does not carry the float32 rounding of `loss`
        ce_v, kd_v, at_v = (0.0 if v is None else v.item() for v in (ce, kd, at))
        total = dcfg.alpha * ce_v + (1.0 - dcfg.alpha) * kd_v + dcfg.beta / 2.0 * at_v
        return total, ce_v, kd_v, at_v

    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics = RunMetrics(layer_names=list(state.masks) if state else ())
    metrics_path = os.path.join(cfg.out_dir, f"{label}_metrics.csv")
    if start_epoch > 0 and os.path.exists(metrics_path):  # keep this run's rows from before the resume
        metrics.rows = [r for r in RunMetrics.read(metrics_path)
                        if tuple(r) == metrics.columns and r["epoch"] < start_epoch]
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
        # a finite loss can still leave non-finite weights: nothing evaluates or saves them
        for name, arr in {**{n: t.data for n, t in model.named_params().items()}, **model.named_buffers()}.items():
            if not np.isfinite(arr).all():
                raise NumericError(f"{name} is not finite after epoch {epoch}")
        # accuracy reflects the state the epoch trained into; the boundary
        # mask update below prepares the *next* epoch, so the final epoch
        # keeps its trained topology
        acc = evaluate_model(model, test_ds, cfg.batch_size, state)
        if state is not None and epoch < cfg.epochs - 1:
            state.p_e = S.decay_prune_rate(cfg.prune_rate0, epoch, cfg.epochs)
            boundary = S.prune_regrow_epoch if state.mode == "irregular" else S.column_prune_regrow_epoch
            boundary(state, model, opt)
        density, global_density, layer_d = _density_metrics(model, state)
        wall = 0.0 if cfg.deterministic else time.monotonic() - t0
        mean = {k: v / batches_seen for k, v in sums.items()}
        metrics.add_row(epoch=epoch, lr=opt.lr, total_loss=mean["total"], ce_loss=mean["ce"],
                        kd_loss=mean["kd"], at_loss=mean["at"], test_acc=acc, density=density,
                        global_density=global_density, wall_time=wall,
                        **{f"d:{n}": d for n, d in layer_d.items()})
        metrics.write(metrics_path)
        if state is not None and epoch < cfg.epochs - 1:
            save_model_checkpoint(os.path.join(cfg.out_dir, f"{kind}_last.atlt"), model, cfg, kind,
                                  epoch + 1, phases=[phase], extra=provenance, state=state, optimizer=opt)
        print(f"[{label}] epoch {epoch + 1}/{cfg.epochs} loss {mean['total']:.4f} "
              f"acc {acc:.4f} density {density:.4f}")
    final = os.path.join(cfg.out_dir, f"{kind}.atlt")
    return save_model_checkpoint(final, model, cfg, kind, cfg.epochs, phases=[phase],
                                 extra={"final_acc": acc, **provenance}, state=state), metrics


# --- training entry points ---


def train_teacher(cfg: TrainConfig):
    """Cross-entropy training of the convolutional teacher: the epoch loop
    with no teacher and no masks, recorded as the conv variant whatever
    `cfg.variant` says. Returns (checkpoint path, RunMetrics)."""
    cfg = replace(cfg, variant="conv")
    spec = spec_by_name(cfg.depth, "teacher", cfg.variant, cfg.classes, cfg.extent, cfg.heads)
    train_ds, test_ds = load_datasets(cfg)
    model = build_model(spec, np.random.default_rng([cfg.seed, 1]))
    opt = SGD(model.named_params(), cfg.lr, weight_decay=cfg.weight_decay)
    return _fit(cfg, model, opt, train_ds, test_ds)


def _check_tap_compatibility(teacher_spec: ModelSpec, student_spec: ModelSpec):
    if len(teacher_spec.blocks) != len(student_spec.blocks):
        raise ConfigError("teacher and student stage counts differ; taps cannot pair")
    if teacher_spec.input_hw != student_spec.input_hw:
        raise ConfigError("teacher and student input resolutions differ")
    if teacher_spec.classes != student_spec.classes:
        raise ConfigError("teacher and student class counts differ")


# config fields a resumed run may change: they move no part of the trajectory
_RESUME_FREE = ("out_dir", "data_dir", "deterministic")


def _sha256(path) -> str:
    """sha256 of a file's bytes, read a chunk at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _resume_epoch(manifest: dict, cfg: TrainConfig, path, teacher_sha256: str) -> int:
    """The epoch to resume from; refuses a checkpoint that is not an
    unfinished student run of `cfg` distilled from the teacher file whose
    sha256 is `teacher_sha256`."""
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
    recorded = manifest.get("teacher_sha256")
    if recorded != teacher_sha256:
        raise ConfigError(f"resume checkpoint {path} is from a different teacher: "
                          f"sha256 {str(recorded)[:12]} -> {teacher_sha256[:12]}")
    epoch = manifest.get("epoch")
    if type(epoch) is not int or epoch < 0:  # a bool is no epoch
        raise FormatError(f"resume checkpoint {path} records no epoch (got {epoch!r})")
    if epoch >= cfg.epochs:
        raise ConfigError(f"resume checkpoint {path} has finished all {cfg.epochs} epochs")
    return epoch


def sparse_distill(cfg: TrainConfig, teacher_ckpt, resume=None):
    """Single-pass sparse distillation of a student against a frozen
    teacher: the epoch loop with both. Returns (checkpoint path, RunMetrics).

    `resume` continues from the rolling `student_last.atlt` of the same
    run (the config may differ only in `out_dir`, `data_dir` and
    `deterministic`), written after every epoch but the last; a file
    without masks is a FormatError. The teacher file must hold the same
    bytes as the run's, at whatever path.
    """
    student_spec = spec_by_name(cfg.depth, "student", cfg.variant, cfg.classes, cfg.extent, cfg.heads)
    train_ds, test_ds = load_datasets(cfg)
    teacher = _model_of_role(teacher_ckpt, "teacher", "--teacher")[0]
    _check_tap_compatibility(teacher.spec, student_spec)
    teacher_sha256 = _sha256(teacher_ckpt)
    start_epoch, loaded = 0, None
    if resume is not None:
        loaded = load_checkpoint(resume)
        start_epoch = _resume_epoch(loaded[0], cfg, resume, teacher_sha256)
    # a resumed student takes every value from the file, so it draws none
    student = build_model(student_spec, _NO_DRAWS if loaded else np.random.default_rng([cfg.seed, 2]))
    opt = SGD(student.named_params(), cfg.lr, weight_decay=cfg.weight_decay)
    if loaded:
        state = _restore(resume, student, *loaded, opt)
        del loaded  # copied into the student and the optimizer; not held through the run
        if state is None:  # every student run keeps masks, density 1.0 included
            raise FormatError(f"resume checkpoint {resume} holds no masks and no sparse record")
    else:
        state = S.init_mask(student, cfg.density, np.random.default_rng([cfg.seed, 3]),
                            mode=cfg.prune_mode, prune_rate0=cfg.prune_rate0,
                            include_stem=cfg.stem_prunable)
        S.audit_coverage(state, student)
    S.apply_mask(state, student)  # a resumed file's weights may hold values its masks exclude
    return _fit(cfg, student, opt, train_ds, test_ds, teacher=teacher, teacher_sha256=teacher_sha256,
                state=state, start_epoch=start_epoch)


# --- accounting report ---


def report(teacher_ckpt, student_ckpt) -> dict:
    """Parameter and FLOP accounting for a (teacher, student) pair."""
    teacher, _, t_masks, _ = _model_of_role(teacher_ckpt, "teacher", "--teacher")
    student, _, s_masks, _ = _model_of_role(student_ckpt, "student", "--student")
    t_total, t_nonzero = count_params(teacher, t_masks)
    s_total, s_nonzero = count_params(student, s_masks)
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
