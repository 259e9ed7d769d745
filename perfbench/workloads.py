"""The three workloads: inputs made from the seed, set-up, and one session.

A session is one call of the workload's training entry point, then the
`eval` command's path (`train.evaluate`) on the checkpoint it wrote. The
benchmark never re-implements the training loop; it calls
`train.train_teacher` or `train.sparse_distill` with a config whose only
varying field is the seed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from attndistill import models, train
from attndistill.config import TrainConfig

from . import checks
from .probe import clock

TOY = dict(dataset="synthetic", synth_train=1000, synth_test=500, classes=2, batch_size=100,
           depth="toy", heads=2, extent=3)
# paper-scale widths (64-512 channels) on a 10-class fixture small enough
# for a few steps per run
FULL = dict(dataset="synthetic", synth_train=16, synth_test=16, classes=10, batch_size=8,
            heads=8, extent=3)
DISTILL = dict(variant="hybrid", alpha=0.1, beta=1000.0, temperature=4.0, prune_rate0=0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    session_s: float  # one session's wall time on the reference machine (2 vCPU Xeon)
    teacher: dict  # TrainConfig fields of the teacher
    student: dict = field(default_factory=dict)  # TrainConfig fields of the student


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toy-distill",
            "attention-heavy smoke arm: student forward+backward dominate, so attention "
            "primitive and autodiff-graph changes show here first",
            session_s=32.0,
            teacher=dict(TOY, variant="conv", epochs=1, lr=0.05),
            student=dict(TOY, **DISTILL, epochs=2, lr=0.003, density=0.25, prune_mode="irregular"),
        ),
        Workload(
            "full-distill",
            "paper-scale teacher50 to student26 hybrid: conv, BLAS and backward dominate, "
            "and per-step mask work and epoch-boundary costs are visible",
            session_s=17.0,
            teacher=dict(FULL, depth="teacher50", variant="conv"),
            student=dict(FULL, **DISTILL, depth="student26", epochs=2, lr=0.01, density=0.5,
                         prune_mode="column"),
        ),
        Workload(
            "toy-teacher",
            "bypass arm: teacher training plus the eval command with no attention, masks or KD, "
            "so attention and sparse changes should not move it",
            session_s=8.0,
            teacher=dict(TOY, variant="conv", epochs=2, lr=0.05),
        ),
    )
}


@dataclass
class Ready:
    """What set-up leaves for the sessions."""

    train_ds: object
    test_ds: object
    teacher_ckpt: str | None
    failures: list


def setup(w: Workload, seed: int, work_dir: str) -> Ready:
    """Make the inputs from the seed and build or train the teacher.

    The full-distill teacher is written untrained and read back, so its
    load is part of set-up as it is for a user starting a run."""
    tcfg = TrainConfig(out_dir=os.path.join(work_dir, "teacher"), seed=seed, **w.teacher)
    train_ds, test_ds = train.load_datasets(tcfg)
    failures = []
    ckpt = None
    if w.name == "toy-distill":
        ckpt, _ = train.train_teacher(tcfg)
    elif w.name == "full-distill":
        spec = models.spec_by_name(tcfg.depth, "teacher", "conv", tcfg.classes, tcfg.extent, tcfg.heads)
        model = models.build_model(spec, np.random.default_rng([seed, 1]))
        ckpt = train.save_model_checkpoint(os.path.join(tcfg.out_dir, "teacher.atlt"), model, tcfg,
                                           "teacher", 0, phases=["untrained"])
        failures += checks.failure("teacher checkpoint round trip",
                                   checks.checkpoint_roundtrip(ckpt, model))
    return Ready(train_ds, test_ds, ckpt, failures)


def digest(ready: Ready) -> str:
    """Digest of the generated inputs and the teacher checkpoint file."""
    h = hashlib.sha256()
    for ds in (ready.train_ds, ready.test_ds):
        h.update(ds.images.tobytes())
        h.update(ds.labels.tobytes())
    if ready.teacher_ckpt:
        with open(ready.teacher_ckpt, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


def session_config(w: Workload, seed: int, out_dir: str) -> TrainConfig:
    fields_ = w.teacher if w.name == "toy-teacher" else w.student
    return TrainConfig(out_dir=out_dir, seed=seed, **fields_)


def run_session(w: Workload, cfg: TrainConfig, ready: Ready, session):
    """One call of the workload's training entry point, then the `eval`
    command's path on the checkpoint it wrote; returns (checkpoint,
    metrics CSV)."""
    if w.name == "toy-teacher":
        ckpt, metrics = train.train_teacher(cfg)
        csv = os.path.join(cfg.out_dir, "teacher_metrics.csv")
    else:
        ckpt, metrics = train.sparse_distill(cfg, ready.teacher_ckpt)
        csv = os.path.join(cfg.out_dir, "distill_metrics.csv")
    session.loop_end = clock()
    acc = train.evaluate(ckpt, ready.test_ds, cfg.batch_size)
    if acc != metrics.rows[-1]["test_acc"]:
        session.failures.append(f"eval command accuracy {acc} != final epoch accuracy "
                                f"{metrics.rows[-1]['test_acc']}")
    return ckpt, csv
