import argparse
import gc
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from dataclasses import fields

import numpy as np
import pytest

from attndistill import train as TR
from attndistill.checkpoint import load_checkpoint, save_checkpoint
from attndistill.cli import _config_from_args, build_parser
from attndistill.cli import main as cli_main
from attndistill.config import TrainConfig
from attndistill.errors import ConfigError, FormatError
from attndistill.models import (
    Model,
    build_model,
    count_params,
    spec_by_name,
    toy_spec,
)
from attndistill.tensor import Tensor
from attndistill.train import (
    RunMetrics,
    evaluate,
    evaluate_model,
    load_datasets,
    lr_at,
    model_from_checkpoint,
    report,
    save_model_checkpoint,
    sparse_distill,
    train_teacher,
)
from conftest import tiny_config


def test_lr_schedule_matches_reference_table():
    cfg = TrainConfig(epochs=200, lr=0.1, lr_drops=(120, 160, 180), dataset="synthetic", classes=2)
    table = {0: 0.1, 119: 0.1, 120: 0.01, 159: 0.01, 160: 0.001, 179: 0.001, 180: 1e-4, 199: 1e-4}
    for epoch, expected in table.items():
        assert lr_at(cfg, epoch) == pytest.approx(expected)


def test_teacher_loss_decreases_and_reaches_fixture_accuracy(tiny_teacher):
    rows = tiny_teacher["metrics"].rows
    losses = [r["total_loss"] for r in rows]
    assert all(a > b for a, b in zip(losses[:3], losses[1:4]))
    assert rows[-1]["test_acc"] > 0.9


def test_checkpoint_reload_reproduces_eval(tiny_teacher):
    cfg = tiny_teacher["cfg"]
    _, test_ds = load_datasets(cfg)
    a = evaluate(tiny_teacher["ckpt"], test_ds, cfg.batch_size)
    b = evaluate(tiny_teacher["ckpt"], test_ds, cfg.batch_size)
    assert a == b
    model, manifest, _, _ = model_from_checkpoint(tiny_teacher["ckpt"])
    assert manifest["final_acc"] == pytest.approx(a)


def test_manifest_reproduces_config(tiny_teacher):
    _, manifest, _, _ = model_from_checkpoint(tiny_teacher["ckpt"])
    assert manifest["config"] == tiny_teacher["cfg"].to_dict()
    assert manifest["phases"] == ["teacher-train"]


def test_distill_dense_identity_masks_stay_ones(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=1.0, beta=0.0, density=1.0)
    ckpt, metrics = sparse_distill(cfg, tiny_teacher["ckpt"])
    _, manifest, masks, _ = model_from_checkpoint(ckpt)
    for mask in masks.values():
        assert (mask == 1).all()
    assert all(r["density"] == 1.0 for r in metrics.rows)


def test_distill_density_column_tracks_budget(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=3, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.25)
    ckpt, metrics = sparse_distill(cfg, tiny_teacher["ckpt"])
    for row in metrics.rows:
        assert row["density"] == pytest.approx(0.25, abs=0.01)
    # global density column matches count_params on the final checkpoint
    model, manifest, masks, _ = model_from_checkpoint(ckpt)
    total, nonzero = count_params(model, masks)
    assert metrics.rows[-1]["global_density"] == pytest.approx(nonzero / total, abs=1e-6)


def test_metrics_components_recombine_to_total(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=1000.0, temperature=4.0, density=0.5)
    _, metrics = sparse_distill(cfg, tiny_teacher["ckpt"])
    for row in metrics.rows:
        recombined = 0.1 * row["ce_loss"] + 0.9 * row["kd_loss"] + 500.0 * row["at_loss"]
        assert abs(recombined - row["total_loss"]) <= 1e-5


@pytest.mark.parametrize("prune_mode", ["irregular", "column"])
def test_deterministic_runs_byte_identical(tmp_path, tiny_teacher, prune_mode):
    cfg = tiny_config(tmp_path / "run", epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.5, prune_mode=prune_mode)
    sparse_distill(cfg, tiny_teacher["ckpt"])
    first = {
        name: (tmp_path / "run" / name).read_bytes()
        for name in ("distill_metrics.csv", "student.atlt")
    }
    sparse_distill(cfg, tiny_teacher["ckpt"])  # identical config, same out_dir
    for name, blob in first.items():
        assert (tmp_path / "run" / name).read_bytes() == blob, name


class _Crash(Exception):
    """A run stopped right after a checkpoint save."""


def _interrupted(cfg, teacher_ckpt, epochs):
    """Run `sparse_distill(cfg)` until the save that records `epochs`
    completed epochs, crash right after it, and return the rolling path."""
    save = TR.save_model_checkpoint

    def save_then_crash(path, model, run_cfg, kind, epoch, *args, **kwargs):
        out = save(path, model, run_cfg, kind, epoch, *args, **kwargs)
        if epoch == epochs:
            raise _Crash
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TR, "save_model_checkpoint", save_then_crash)
        with pytest.raises(_Crash):
            sparse_distill(cfg, teacher_ckpt)
    return os.path.join(cfg.out_dir, "student_last.atlt")


def test_resume_reproduces_uninterrupted_rows(tmp_path, tiny_teacher):
    for mode in ("irregular", "column"):
        run = dict(epochs=4, lr=0.01, lr_drops=(), variant="hybrid", alpha=0.1, beta=10.0,
                   density=0.5, prune_mode=mode)
        full_ckpt, full_metrics = sparse_distill(tiny_config(tmp_path / mode / "full", **run),
                                                 tiny_teacher["ckpt"])

        # the same 4-epoch run, interrupted after 2 completed epochs
        part_cfg = tiny_config(tmp_path / mode / "part", **run)
        last = _interrupted(part_cfg, tiny_teacher["ckpt"], 2)
        if mode == "irregular":  # a CSV of another layout in the new directory is not the run's
            os.makedirs(tmp_path / mode / "resumed")
            shutil.copy(os.path.join(tiny_teacher["cfg"].out_dir, "teacher_metrics.csv"),
                        tmp_path / mode / "resumed" / "distill_metrics.csv")
        resumed_ckpt, resumed = sparse_distill(tiny_config(tmp_path / mode / "resumed", **run),
                                               tiny_teacher["ckpt"], resume=last)
        assert [int(r["epoch"]) for r in resumed.rows] == [2, 3]
        target = {int(r["epoch"]): r for r in full_metrics.rows}
        for row in resumed.rows:
            ref = target[int(row["epoch"])]
            for col in ("total_loss", "ce_loss", "kd_loss", "at_loss", "test_acc", "density"):
                assert row[col] == pytest.approx(ref[col], abs=1e-7), (mode, col, row["epoch"])

        # the final checkpoints agree bit for bit, but for where each run wrote
        (m_full, a_full, k_full), (m_res, a_res, k_res) = map(load_checkpoint, (full_ckpt, resumed_ckpt))
        assert m_full["config"].pop("out_dir") != m_res["config"].pop("out_dir")
        assert m_full == m_res, mode
        for mine, theirs in ((a_full, a_res), (k_full, k_res)):
            assert list(mine) == list(theirs), mode
            for name, arr in mine.items():
                assert arr.shape == theirs[name].shape and arr.tobytes() == theirs[name].tobytes(), (mode, name)

        # resumed in its own directory, the run keeps its first rows: the CSV is the uninterrupted one
        sparse_distill(part_cfg, tiny_teacher["ckpt"], resume=last)
        csv = "distill_metrics.csv"
        assert (tmp_path / mode / "part" / csv).read_bytes() == (tmp_path / mode / "full" / csv).read_bytes(), mode


def test_no_step_graph_outlives_its_step(tmp_path, tiny_teacher, monkeypatch):
    """Every forward output of step t (the teacher's and the student's
    logits and taps) is dead when the next forward is entered."""
    forward = Model.forward_with_taps
    in_step, ended, alive = [], [], []

    def forward_with_taps(model, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in ended))
        ended.clear()
        logits, taps = forward(model, *args, **kwargs)
        in_step.extend(weakref.ref(t) for t in [logits, *taps])
        if kwargs.get("training"):  # the trained model's forward is a step's last
            ended.extend(in_step)
            in_step.clear()
        return logits, taps

    monkeypatch.setattr(Model, "forward_with_taps", forward_with_taps)
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.5)
    gc.disable()  # refcounting alone must free the step
    try:
        sparse_distill(cfg, tiny_teacher["ckpt"])
    finally:
        gc.enable()
    # 8 steps per epoch, each a teacher and a student forward, plus the eval batches
    assert len(alive) > 2 * 2 * 8 and not any(alive)


def test_teacher_outputs_are_dead_when_the_backward_starts(tmp_path, tiny_teacher, monkeypatch):
    """KD and AT keep only arrays derived from the teacher's logits and taps,
    so the step drops those outputs before the student's backward runs."""
    forward, backward = Model.forward_with_taps, Tensor.backward
    teacher_outputs, alive = [], []

    def forward_with_taps(model, *args, **kwargs):
        logits, taps = forward(model, *args, **kwargs)
        if model.spec.role == "teacher":
            teacher_outputs.extend(weakref.ref(t) for t in [logits, *taps])
        return logits, taps

    def backward_entered(loss):
        alive.append(sum(ref() is not None for ref in teacher_outputs))
        teacher_outputs.clear()
        return backward(loss)

    monkeypatch.setattr(Model, "forward_with_taps", forward_with_taps)
    monkeypatch.setattr(Tensor, "backward", backward_entered)
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.5)
    gc.disable()  # refcounting alone must free them
    try:
        sparse_distill(cfg, tiny_teacher["ckpt"])
    finally:
        gc.enable()
    assert len(alive) == 2 * 8 and not any(alive)  # 8 steps per epoch


def test_a_step_drops_the_last_gradients_before_its_forward(tmp_path, tiny_teacher, monkeypatch):
    """No parameter holds a gradient when a training step's student forward
    is entered, so one step's gradients never live through the next
    step's graph."""
    forward, held = Model.forward_with_taps, []

    def forward_with_taps(model, *args, **kwargs):
        if kwargs.get("training"):  # the trained model's forward
            held.append(sum(t.grad is not None for t in model.named_params().values()))
        return forward(model, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_with_taps", forward_with_taps)
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.5)
    sparse_distill(cfg, tiny_teacher["ckpt"])
    assert len(held) == 2 * 8 and not any(held)  # 8 steps per epoch


def test_teacher_run_has_no_distillation_and_no_masks(tiny_teacher):
    """The teacher goes through the distillation loop with no teacher and no
    masks; its artifacts are those of plain cross-entropy training."""
    written = RunMetrics.read(os.path.join(tiny_teacher["cfg"].out_dir, "teacher_metrics.csv"))
    for row in tiny_teacher["metrics"].rows + written:
        assert row["total_loss"] == row["ce_loss"]  # bit for bit
        assert row["kd_loss"] == row["at_loss"] == 0.0
        assert row["density"] == row["global_density"] == 1.0
    assert sorted(os.listdir(tiny_teacher["cfg"].out_dir)) == ["teacher.atlt", "teacher_metrics.csv"]
    manifest, arrays, masks = load_checkpoint(tiny_teacher["ckpt"])
    assert not [k for k in arrays if k.startswith("opt.")]
    assert masks == {} and manifest["sparse"] is None


RESUMED_RUN = dict(epochs=2, lr=0.01, lr_drops=(), variant="hybrid", alpha=0.1, beta=10.0, density=0.5)


@pytest.fixture(scope="module")
def interrupted_run(tmp_path_factory, tiny_teacher):
    out = tmp_path_factory.mktemp("interrupted")
    return _interrupted(tiny_config(out, **RESUMED_RUN), tiny_teacher["ckpt"], 1)


@pytest.mark.parametrize("field,value", [("seed", 8), ("density", 0.9), ("epochs", 3), ("alpha", 0.5),
                                         ("momentum", 0.9)])
def test_resume_refuses_a_different_run(tmp_path, tiny_teacher, interrupted_run, field, value):
    """A config field set otherwise, or, for a field the config no longer has,
    a rolling file whose stored config still holds it."""
    resume, out = interrupted_run, tmp_path / "out"
    if field in {f.name for f in fields(TrainConfig)}:
        cfg = tiny_config(out, **dict(RESUMED_RUN, **{field: value}))
    else:
        cfg = tiny_config(out, **RESUMED_RUN)
        manifest, arrays, masks = load_checkpoint(interrupted_run)
        manifest["config"][field] = value
        resume = str(tmp_path / "old.atlt")
        save_checkpoint(resume, manifest, arrays, masks)
    with pytest.raises(ConfigError, match=f"different run: {field} "):
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=resume)
    assert not out.exists()


def test_resume_refuses_a_teacher_checkpoint(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, **RESUMED_RUN)
    with pytest.raises(ConfigError, match="not a student"):
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=tiny_teacher["ckpt"])


def _resume_over_edited_csv(tmp_path, capsys, teacher_ckpt, interrupted_run, edit):
    """`distill --resume` in a directory whose metrics CSV holds the interrupted run's
    one row passed through `edit`; the run must fail. Returns (CSV path, stderr)."""
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(interrupted_run, out / "student_last.atlt")
    csv = os.path.join(os.path.dirname(interrupted_run), "distill_metrics.csv")
    header, row = open(csv).read().splitlines()
    (out / "distill_metrics.csv").write_text(f"{header}\n{edit(row)}\n")
    (tmp_path / "run.json").write_text(json.dumps(tiny_config(out, **RESUMED_RUN).to_dict()))
    assert cli_main(["distill", "--config", str(tmp_path / "run.json"), "--teacher", teacher_ckpt,
                     "--resume", str(out / "student_last.atlt")]) == 1
    return out / "distill_metrics.csv", capsys.readouterr().err


def test_cli_resume_over_a_bad_metrics_csv_names_its_line(tmp_path, capsys, tiny_teacher, interrupted_run):
    csv, err = _resume_over_edited_csv(tmp_path, capsys, tiny_teacher["ckpt"], interrupted_run,
                                       lambda row: row.replace(",", ",x", 1))
    assert err.startswith(f"error: FormatError: metrics file {csv} line 2: ") and err.count("\n") == 1


@pytest.mark.parametrize("edit", [lambda row: row.rsplit(",", 1)[0], lambda row: row + ",0"], ids=["short", "long"])
def test_cli_resume_over_a_metrics_row_of_the_wrong_length_is_one_format_error(tmp_path, capsys, tiny_teacher,
                                                                               interrupted_run, edit):
    csv, err = _resume_over_edited_csv(tmp_path, capsys, tiny_teacher["ckpt"], interrupted_run, edit)
    assert err.startswith(f"error: FormatError: metrics file {csv} line 2: ") and err.count("\n") == 1
    assert "header has" in err


def test_cli_resume_refuses_another_teacher(tmp_path, capsys, tiny_teacher, interrupted_run):
    """The rolling file records the sha256 of its teacher's file: another
    teacher is refused, a byte-identical copy at another path resumes."""
    def sha256(path):
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    untrained = build_model(toy_spec("teacher", "conv"), np.random.default_rng(8))
    other = save_model_checkpoint(str(tmp_path / "other.atlt"), untrained, tiny_teacher["cfg"], "teacher", 0,
                                  phases=["untrained"])
    copy = shutil.copy(tiny_teacher["ckpt"], tmp_path / "copy.atlt")
    (tmp_path / "run.json").write_text(json.dumps(tiny_config(tmp_path / "run", **RESUMED_RUN).to_dict()))
    argv = ["distill", "--config", str(tmp_path / "run.json"), "--resume", interrupted_run, "--teacher"]
    assert cli_main(argv + [other]) == 1
    recorded = sha256(tiny_teacher["ckpt"])
    assert capsys.readouterr().err == (f"error: ConfigError: resume checkpoint {interrupted_run} is from a "
                                       f"different teacher: sha256 {recorded[:12]} -> {sha256(other)[:12]}\n")
    assert not (tmp_path / "run").exists()
    assert cli_main(argv + [str(copy)]) == 0
    assert load_checkpoint(tmp_path / "run" / "student.atlt")[0]["teacher_sha256"] == recorded


def test_resume_refuses_a_checkpoint_without_teacher_hash(tmp_path, tiny_teacher, interrupted_run):
    manifest, arrays, masks = load_checkpoint(interrupted_run)
    del manifest["teacher_sha256"]
    path = str(tmp_path / "nohash.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    with pytest.raises(ConfigError, match="different teacher: sha256 None -> "):
        sparse_distill(tiny_config(tmp_path / "out", **RESUMED_RUN), tiny_teacher["ckpt"], resume=path)


def test_resume_refuses_a_checkpoint_without_config(tmp_path, tiny_teacher, interrupted_run):
    manifest, arrays, masks = load_checkpoint(interrupted_run)
    del manifest["config"]
    path = str(tmp_path / "noconfig.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    cfg = tiny_config(tmp_path / "out", **RESUMED_RUN)
    with pytest.raises(ConfigError, match="no run config"):
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=path)


def test_resume_refuses_a_finished_run(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, **RESUMED_RUN)
    sparse_distill(cfg, tiny_teacher["ckpt"])
    final = (tmp_path / "student.atlt").read_bytes()
    with pytest.raises(ConfigError, match="finished"):
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=str(tmp_path / "student.atlt"))
    assert (tmp_path / "student.atlt").read_bytes() == final


def test_each_checkpoint_is_written_for_its_reader(tmp_path, tiny_teacher, monkeypatch):
    """The rolling file only while an epoch follows, the final file last and
    without velocities, since nothing trains on from a finished run."""
    save, saves = TR.save_model_checkpoint, []

    def record(path, model, cfg, kind, epoch, *args, **kwargs):
        saves.append((os.path.basename(path), epoch))
        return save(path, model, cfg, kind, epoch, *args, **kwargs)

    monkeypatch.setattr(TR, "save_model_checkpoint", record)
    ckpt, _ = sparse_distill(tiny_config(tmp_path / "three", **dict(RESUMED_RUN, epochs=3)), tiny_teacher["ckpt"])
    assert saves == [("student_last.atlt", 1), ("student_last.atlt", 2), ("student.atlt", 3)]
    assert ckpt == str(tmp_path / "three" / "student.atlt")
    _, arrays, _ = load_checkpoint(ckpt)
    assert arrays and not [k for k in arrays if k.startswith("opt.")]
    sparse_distill(tiny_config(tmp_path / "one", **dict(RESUMED_RUN, epochs=1)), tiny_teacher["ckpt"])
    assert sorted(os.listdir(tmp_path / "one")) == ["distill_metrics.csv", "student.atlt"]


@pytest.mark.parametrize("epoch", [-1, True])
def test_resume_refuses_a_negative_or_boolean_epoch(tmp_path, tiny_teacher, interrupted_run, epoch):
    manifest, arrays, masks = load_checkpoint(interrupted_run)
    manifest["epoch"] = epoch
    path = str(tmp_path / "bad_epoch.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    cfg = tiny_config(tmp_path / "out", **RESUMED_RUN)
    with pytest.raises(FormatError, match="records no epoch"):
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=path)
    assert not (tmp_path / "out").exists()


def test_column_mode_distill_end_to_end(tmp_path, tiny_teacher):
    from attndistill.sparse import _as_matrix

    cfg = tiny_config(tmp_path, epochs=3, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.5, prune_mode="column")
    ckpt, metrics = sparse_distill(cfg, tiny_teacher["ckpt"])
    _, manifest, masks, _ = model_from_checkpoint(ckpt)
    assert manifest["sparse"]["mode"] == "column"
    for mask in masks.values():
        mat = _as_matrix(mask)
        col_on = mat.sum(axis=0)
        assert set(np.unique(col_on)) <= {0.0, float(mat.shape[0])}
    assert metrics.rows[-1]["density"] == pytest.approx(0.5, abs=0.05)


def test_column_mode_eval_command_equals_the_last_epoch_accuracy(tmp_path, capsys, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.5, prune_mode="column")
    ckpt, metrics = sparse_distill(cfg, tiny_teacher["ckpt"])
    (tmp_path / "run.json").write_text(json.dumps(cfg.to_dict()))
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", ckpt, "--config", str(tmp_path / "run.json")]) == 0
    assert capsys.readouterr().out == f"accuracy: {metrics.rows[-1]['test_acc']:.4f}\n"
    _, test_ds = load_datasets(cfg)
    assert evaluate(ckpt, test_ds, cfg.batch_size) == metrics.rows[-1]["test_acc"]


def test_evaluate_model_detaches_the_live_slices(tmp_path, monkeypatch):
    from attndistill.errors import NumericError
    from attndistill.sparse import apply_mask, init_mask

    _, test_ds = load_datasets(tiny_config(tmp_path))
    model = build_model(toy_spec("student", "hybrid"), np.random.default_rng(0))
    state = init_mask(model, 0.5, np.random.default_rng(1), mode="column")
    apply_mask(state, model)
    live = lambda: {n for n, layer in model.named_layers() if getattr(layer, "live", None)}
    seen, forward = [], Model.forward_with_taps

    def spy(self, x, training=False):
        seen.append(live())
        return forward(self, x, training)

    monkeypatch.setattr(Model, "forward_with_taps", spy)
    acc = evaluate_model(model, test_ds, 25, state)
    assert seen and all(s == {n.rsplit(".", 1)[0] for n in state.masks} for s in seen)
    assert not live() and acc == evaluate_model(model, test_ds, 25)

    def fail(self, x, training=False):
        raise NumericError("forward failed")

    monkeypatch.setattr(Model, "forward_with_taps", fail)
    with pytest.raises(NumericError):
        evaluate_model(model, test_ds, 25, state)
    assert not live()


def test_masked_eval_equals_manually_zeroed_dense_copy(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=1.0, beta=0.0, density=0.5)
    ckpt, _ = sparse_distill(cfg, tiny_teacher["ckpt"])
    _, test_ds = load_datasets(cfg)
    acc_masked = evaluate(ckpt, test_ds, cfg.batch_size)

    model, manifest, masks, _ = model_from_checkpoint(ckpt)
    for name, p in model.prunable().items():
        p.data *= masks[name]  # write the zeros in by hand
    acc_dense_zeroed = evaluate_model(model, test_ds, cfg.batch_size)
    assert acc_masked == acc_dense_zeroed


def test_untrained_student_near_chance_on_balanced_classes(tmp_path):
    cfg = tiny_config(tmp_path, classes=10, synth_train=100, synth_test=500, variant="hybrid")
    _, test_ds = load_datasets(cfg)
    model = build_model(toy_spec("student", "hybrid", classes=10), np.random.default_rng(5))
    acc = evaluate_model(model, test_ds, 100)
    assert abs(acc - 0.10) <= 0.05


def test_tap_incompatibility_raises_config_error(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=1, variant="hybrid", classes=3, synth_train=30, synth_test=9)
    with pytest.raises(ConfigError):
        sparse_distill(cfg, tiny_teacher["ckpt"])


def test_non_teacher_checkpoint_refused_as_teacher(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1, variant="hybrid")
    student = build_model(toy_spec("student", "hybrid"), np.random.default_rng(0))
    ckpt = save_model_checkpoint(str(tmp_path / "s.atlt"), student, cfg, "student", 1,
                                 phases=["sparse-distill"])
    with pytest.raises(ConfigError, match="not a teacher"):
        sparse_distill(cfg, ckpt)


@pytest.mark.parametrize("command,depth,message", [
    ("train-teacher", "student26", "depth student26 builds a student, not a teacher"),
    ("distill", "teacher50", "depth teacher50 builds a teacher, not a student"),
], ids=["train-teacher", "distill"])
def test_a_depth_that_builds_the_other_role_is_refused(tmp_path, capsys, tiny_teacher, command, depth,
                                                        message):
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, "--depth", depth, "--variant", "hybrid", "--out-dir", str(out),
            "--synth-train", "4", "--synth-test", "4", "--batch-size", "4", "--epochs", "1"]
    assert cli_main(argv + (["--teacher", tiny_teacher["ckpt"]] if command == "distill" else [])) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not os.listdir(out)


def test_cli_eval_refuses_data_of_another_class_count(tmp_path, capsys):
    model = build_model(toy_spec("teacher", "conv", classes=10), np.random.default_rng(0))
    ckpt = save_model_checkpoint(str(tmp_path / "t.atlt"), model, tiny_config(tmp_path, classes=10),
                                 "teacher", 1, phases=["teacher-train"])
    assert cli_main(["eval", "--ckpt", ckpt]) == 1  # the default flags read 2-class synthetic data
    assert capsys.readouterr().err == "error: ConfigError: dataset has 2 classes, the model 10\n"


@pytest.mark.parametrize("refused", ["--teacher", "--student"])
def test_cli_report_refuses_a_checkpoint_of_the_other_role(tmp_path, capsys, tiny_teacher, refused):
    """One checkpoint in both slots: the slot of the other role refuses it."""
    student = build_model(toy_spec("student", "hybrid"), np.random.default_rng(0))
    ckpt = tiny_teacher["ckpt"]
    if refused == "--teacher":
        ckpt = save_model_checkpoint(str(tmp_path / "s.atlt"), student, tiny_config(tmp_path), "student", 1,
                                     phases=["sparse-distill"])
    assert cli_main(["report", "--teacher", ckpt, "--student", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {refused} checkpoint {ckpt} is a ") and err.count("\n") == 1


def test_report_on_toy_pair(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=1, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=1.0, beta=0.0, density=0.5)
    student_ckpt, _ = sparse_distill(cfg, tiny_teacher["ckpt"])
    r = report(tiny_teacher["ckpt"], student_ckpt)
    assert r["teacher"]["nonzero"] == r["teacher"]["params"]
    assert r["student"]["nonzero"] < r["student"]["params"]
    assert r["param_ratio"] > 1.0
    assert r["flops_ratio"] > 1.0


def test_single_phase_property(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=1.0, beta=0.0, density=0.5)
    ckpt, metrics = sparse_distill(cfg, tiny_teacher["ckpt"])
    _, manifest, _, _ = model_from_checkpoint(ckpt)
    assert manifest["phases"] == ["sparse-distill"]
    assert len(metrics.rows) == cfg.epochs
    assert [int(r["epoch"]) for r in metrics.rows] == list(range(cfg.epochs))


# --- CLI surface ---


def test_cli_gradcheck_exits_zero(capsys):
    assert cli_main(["gradcheck", "--coords", "4", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "attention_layer" in out


def test_cli_train_eval_report_flow(tmp_path, capsys):
    args = ["--dataset", "synthetic", "--seed", "3", "--epochs", "2", "--lr", "0.05",
            "--depth", "toy", "--heads", "2", "--batch-size", "50"]
    rc = cli_main(["train-teacher", "--out-dir", str(tmp_path / "t"), "--variant", "conv", *args])
    assert rc == 0
    teacher = str(tmp_path / "t" / "teacher.atlt")
    rc = cli_main(["distill", "--teacher", teacher, "--out-dir", str(tmp_path / "s"),
                   "--variant", "hybrid", "--density", "0.5", "--prune-mode", "irregular",
                   "--alpha", "0.1", "--beta", "10", "--temperature", "4", *args])
    assert rc == 0
    student = str(tmp_path / "s" / "student.atlt")
    rc = cli_main(["eval", "--ckpt", student, *args])
    assert rc == 0
    rc = cli_main(["report", "--teacher", teacher, "--student", student])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out and "ratios" in out


def test_cli_refuses_non_finite_weights_after_a_finite_loss(tmp_path, capsys, monkeypatch):
    """A weight made infinite by the first epoch's last step, whose loss was
    finite, ends the run at that epoch's end in one NumericError line that
    names it, before evaluation, the metrics file and any checkpoint."""
    from attndistill.optim import SGD

    real, steps = SGD.step, []

    def step(self):
        real(self)
        steps.append(self)
        if len(steps) == 2:  # 100 images in batches of 50: the first epoch's last step
            self.params["fc.w"].data[0, 0] = np.inf

    monkeypatch.setattr(SGD, "step", step)
    monkeypatch.setattr(TR, "evaluate_model", lambda *a: pytest.fail("evaluated non-finite weights"))
    out = tmp_path / "t"
    rc = cli_main(["train-teacher", "--out-dir", str(out), "--dataset", "synthetic", "--synth-train", "100",
                   "--synth-test", "50", "--batch-size", "50", "--epochs", "2", "--depth", "toy"])
    assert rc == 1 and len(steps) == 2
    assert capsys.readouterr().err == "error: NumericError: fc.w is not finite after epoch 0\n"
    assert not list(out.glob("*"))


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"epochs": 1, "lr": 0.02, "synth_train": 40,
                                    "synth_test": 10, "batch_size": 20, "out_dir": str(tmp_path / "o")}))
    rc = cli_main(["train-teacher", "--config", str(cfg_file), "--lr", "0.03"])
    assert rc == 0
    from attndistill.train import model_from_checkpoint

    _, manifest, _, _ = model_from_checkpoint(str(tmp_path / "o" / "teacher.atlt"))
    assert manifest["config"]["lr"] == 0.03  # flag wins
    assert manifest["config"]["epochs"] == 1  # file value kept
    # the teacher is a conv model, whatever the variant field defaults to
    assert manifest["config"]["variant"] == manifest["model_spec"]["variant"] == "conv"


@pytest.mark.parametrize("config, named", [
    ({"epochs": "ten"}, "epochs"),
    ({"lr_drops": ["x"]}, "lr_drops"),
    ([1, 2], "JSON object"),
    ({"heads": "2", "epochs": 1, "synth_train": 20, "synth_test": 10}, "heads"),
])
def test_cli_config_file_of_the_wrong_type_is_one_config_error(tmp_path, capsys, config, named):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(config))
    rc = cli_main(["train-teacher", "--config", str(cfg_file), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1 and named in err


def _config_parsers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sub.choices[name] for name in ("train-teacher", "distill", "eval")}


@pytest.mark.parametrize("command", ["train-teacher", "distill", "eval"])
def test_every_config_field_has_exactly_one_flag(command):
    actions = _config_parsers()[command]._actions
    for f in fields(TrainConfig):
        (action,) = [a for a in actions if a.dest == f.name]
        flag = "--" + f.name.replace("_", "-")
        assert action.option_strings == ([flag, "--no-" + flag[2:]] if f.type == "bool" else [flag])


# every field off its default; `dataset` is left synthetic in the first row so that `classes` counts,
# and the cifar100 row gives the one class count that dataset takes
_OFF_DEFAULT = dict(
    out_dir="o", seed=3, deterministic=True, dataset="synthetic", data_dir="d", classes=5, synth_train=7,
    synth_test=3, epochs=4, batch_size=9, lr=0.5, weight_decay=0.0, lr_drops=(1, 3), depth="student38",
    variant="homogeneous", extent=5, heads=4, alpha=0.25, beta=2.5, temperature=2.0,
    temperature_sq_correction=False, density=0.5, prune_mode="column", prune_rate0=0.25, stem_prunable=False,
)


@pytest.mark.parametrize("values", [_OFF_DEFAULT, dict(_OFF_DEFAULT, dataset="cifar100", classes=100)],
                         ids=["synthetic", "cifar100"])
def test_flags_build_the_config_that_a_config_file_builds(tmp_path, values):
    assert sorted(values) == sorted(f.name for f in fields(TrainConfig))
    argv = ["eval", "--ckpt", "x.atlt"]
    for action in _config_parsers()["eval"]._actions:
        value = values.get(action.dest)
        if isinstance(value, bool):
            argv.append(action.option_strings[0 if value else 1])
        elif isinstance(value, tuple):
            argv += [action.option_strings[0], *map(str, value)]
        elif value is not None:
            argv += [action.option_strings[0], str(value)]
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(values))
    from_flags = _config_from_args(build_parser().parse_args(argv)).to_dict()
    assert from_flags == TrainConfig.load(str(cfg_file)).to_dict() == TrainConfig(**values).to_dict()
    defaults = TrainConfig().to_dict()
    assert all(from_flags[name] != defaults[name] for name in values if name != "dataset")


@pytest.mark.parametrize("argv, named", [
    (["distill", "--teacher", "t.atlt", "--prune-mode", "sideways"], "--prune-mode"),
    (["train-teacher", "--heads", "two"], "--heads"),
    (["train-teacher", "--bogus", "1"], "--bogus"),
    (["train-teacher", "--dens", "0.5"], "--dens"),
    (["distill", "--density", "0.5"], "--teacher"),
    ([], "command"),
    (["train-teacher", "--seed", "-1"], "field seed "),
    (["train-teacher", "--classes", "0"], "field classes "),
    (["train-teacher", "--synth-train", "-5"], "field synth_train "),
    (["train-teacher", "--synth-test", "0"], "field synth_test "),
    (["train-teacher", "--weight-decay", "-0.1"], "field weight_decay "),
    (["train-teacher", "--lr", "0"], "field lr "),
    (["train-teacher", "--lr-drops", "18", "-5"], "field lr_drops "),
    (["train-teacher", "--momentum", "0.9"], "--momentum"),
    (["train-teacher", "--lr-drop-factor", "0.1"], "--lr-drop-factor"),
    (["distill", "--teacher", "t.atlt", "--prune-rate", "0.5"], "--prune-rate"),
    (["gradcheck", "--seeds", "0"], "gradcheck seeds "),
    (["gradcheck", "--coords", "0"], "gradcheck coords "),
    (["gradcheck", "--coords", "-1"], "gradcheck coords "),
], ids=["unknown_choice", "non_integer", "unknown_flag", "abbreviated_flag", "no_teacher", "no_command",
        "negative_seed", "no_classes", "negative_synth_train", "no_synth_test", "negative_weight_decay",
        "zero_lr", "negative_lr_drop", "removed_momentum", "removed_lr_drop_factor", "removed_prune_rate",
        "no_gradcheck_seeds", "no_gradcheck_coords", "negative_gradcheck_coords"])
def test_cli_bad_input_is_one_config_error(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ConfigError: ") and captured.err.count("\n") == 1
    assert named in captured.err and not captured.out
    assert not os.listdir(tmp_path)  # refused before any run directory or data


def test_cli_config_file_that_is_not_utf8_is_one_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_bytes(b'\xff\xfe{"epochs": 1}')
    assert cli_main(["train-teacher", "--config", str(cfg_file), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1 and "UTF-8" in err


@pytest.mark.parametrize("dataset, count, given", [("cifar10", 10, 3), ("cifar100", 100, 7)])
def test_a_cifar_dataset_refuses_another_class_count(dataset, count, given):
    message = f"dataset {dataset} has {count} classes, config field classes says {given}"
    for load in (lambda d: TrainConfig.load(None, d), TrainConfig.from_dict):
        with pytest.raises(ConfigError, match=message):
            load({"dataset": dataset, "classes": given})
        assert load({"dataset": dataset, "classes": count}).classes == count  # a stored config restates it
        assert load({"dataset": dataset}).classes == count


@pytest.mark.parametrize("source", ["flags", "file"])
def test_cli_cifar_dataset_with_another_class_count_is_one_config_error(tmp_path, capsys, monkeypatch, source):
    monkeypatch.chdir(tmp_path)
    if source == "flags":
        argv = ["eval", "--ckpt", "x.atlt", "--dataset", "cifar10", "--classes", "3"]
    else:
        (tmp_path / "run.json").write_text(json.dumps({"dataset": "cifar100", "classes": 7}))
        argv = ["train-teacher", "--config", "run.json", "--out-dir", "o"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: ConfigError: dataset cifar10 has 10 classes, config field classes says 3\n"
                            if source == "flags" else
                            "error: ConfigError: dataset cifar100 has 100 classes, config field classes says 7\n")
    assert not captured.out
    assert os.listdir(tmp_path) == ([] if source == "flags" else ["run.json"])


def test_cli_subprocess_bad_flag_exits_one_not_two():
    proc = subprocess.run([sys.executable, "-m", "attndistill.cli", "distill", "--prune-mode", "sideways"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ConfigError: ") and proc.stderr.count("\n") == 1


def test_cli_error_is_single_parsable_line(capsys):
    rc = cli_main(["eval", "--ckpt", "/nonexistent/x.atlt", "--dataset", "synthetic"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err


def test_cli_checkpoint_without_model_spec_is_format_error(tmp_path, capsys):
    path = str(tmp_path / "nospec.atlt")
    save_checkpoint(path, {"kind": "student", "epoch": 1}, {"param.w": np.zeros(4, dtype=np.float32)})
    with pytest.raises(FormatError):
        model_from_checkpoint(path)
    rc = cli_main(["eval", "--ckpt", path, "--dataset", "synthetic"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: FormatError: ") and "\n" not in err


@pytest.mark.parametrize("flag, value, named", [("--heads", "0", "heads"), ("--heads", "-1", "heads"),
                                               ("--extent", "-1", "extent")])
def test_cli_distill_with_a_non_positive_spec_count_is_one_config_error(tmp_path, capsys, tiny_teacher,
                                                                        flag, value, named):
    rc = cli_main(["distill", "--teacher", tiny_teacher["ckpt"], "--out-dir", str(tmp_path / "o"),
                   "--epochs", "1", flag, value])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1 and f"field {named} " in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value, named", [
    ("heads", 0, "heads"), ("widths", [0, 8, 16], "widths[0]"), ("expansion", 0, "expansion"),
    ("heads", -2, "heads"), ("widths", [4, 8.0, 16], "widths[1]"), ("heads", True, "heads"),
], ids=["heads0", "width0", "expansion0", "negative_heads", "float_width", "bool_heads"])
def test_cli_eval_on_a_bad_spec_count_is_one_format_error(tmp_path, capsys, interrupted_run,
                                                           field, value, named):
    manifest, arrays, masks = load_checkpoint(interrupted_run)
    manifest["model_spec"][field] = value
    path = str(tmp_path / "badspec.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    with pytest.raises(FormatError, match=f"checkpoint {re.escape(path)} .*field {re.escape(named)} "):
        model_from_checkpoint(path)
    assert cli_main(["eval", "--ckpt", path, "--dataset", "synthetic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1


@pytest.mark.parametrize("record, field, value, refusal", [
    pytest.param("model_spec", "pos_scale", "fourth-root", "has no valid model_spec ", id="pos_scale-fourth-root"),
    pytest.param("model_spec", "stem_width", 0, "has no valid model_spec ", id="stem_width-0"),
    pytest.param("sparse", "density", 0.5, "holds ", id="sparse-density-0.5"),
])
def test_cli_eval_refuses_a_checkpoint_whose_spec_holds_a_removed_field(tmp_path, capsys, interrupted_run,
                                                                        record, field, value, refusal):
    """A checkpoint written while its model spec or sparse record still had this field, at the run's value."""
    manifest, arrays, masks = load_checkpoint(interrupted_run)
    manifest[record][field] = value
    path = str(tmp_path / "old.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    assert cli_main(["eval", "--ckpt", path, "--dataset", "synthetic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: checkpoint {path} {refusal}")
    assert err.count("\n") == 1 and field in err


def test_cli_config_file_with_a_removed_field_is_one_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "old.json"
    cfg_file.write_text(json.dumps({"map_power": 2.0, "pos_scale": "fourth-root", "momentum": 0.9,
                                    "lr_drop_factor": 0.1}))
    assert cli_main(["eval", "--config", str(cfg_file), "--ckpt", str(tmp_path / "x.atlt")]) == 1
    assert capsys.readouterr().err == ("error: ConfigError: unknown config fields: "
                                       "['lr_drop_factor', 'map_power', 'momentum', 'pos_scale']\n")


def test_cli_eval_on_a_flipped_parameter_name_is_one_format_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path, variant="conv")
    model = build_model(toy_spec("teacher", "conv"), np.random.default_rng(0))
    path = save_model_checkpoint(str(tmp_path / "t.atlt"), model, cfg, "teacher", 1, phases=["x"])
    name = next(iter(model.named_params()))
    blob = bytearray((tmp_path / "t.atlt").read_bytes())
    blob[blob.index(f"param.{name}".encode()) + len(f"param.{name}") - 1] ^= 0x20  # still UTF-8
    (tmp_path / "t.atlt").write_bytes(blob)
    with pytest.raises(FormatError, match=f"missing parameter {name}"):
        model_from_checkpoint(path)
    assert cli_main(["eval", "--ckpt", path, "--dataset", "synthetic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1


def test_checkpoint_parameter_of_the_wrong_shape_is_format_error(tmp_path):
    cfg = tiny_config(tmp_path, variant="conv")
    model = build_model(toy_spec("teacher", "conv"), np.random.default_rng(0))
    path = save_model_checkpoint(str(tmp_path / "t.atlt"), model, cfg, "teacher", 1, phases=["x"])
    manifest, arrays, _ = load_checkpoint(path)
    name = next(iter(model.named_params()))
    arrays[f"param.{name}"] = arrays[f"param.{name}"].reshape(-1)
    save_checkpoint(path, manifest, arrays)
    with pytest.raises(FormatError, match=f"parameter {name} has shape"):
        model_from_checkpoint(path)


def _records_in(path):
    """(name, kind, offset of the name's last byte) of every record in a
    checkpoint file; kind 0 is a float array, 1 a mask."""
    with open(path, "rb") as f:
        blob = f.read()
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    at = 16 + mlen
    (count,) = struct.unpack_from("<I", blob, at)
    at += 4
    out = []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, at)
        at += 2
        name = blob[at : at + nlen].decode()
        at += nlen
        kind, ndim = blob[at], blob[at + 1]
        (plen,) = struct.unpack_from("<Q", blob, at + 2 + 4 * ndim)
        out.append((name, kind, at - 1))
        at += 2 + 4 * ndim + 8 + plen
    return out


def _renamed(tmp_path, src, last_byte):
    with open(src, "rb") as f:
        blob = bytearray(f.read())
    blob[last_byte] ^= 0x20  # still UTF-8
    path = tmp_path / "renamed.atlt"
    path.write_bytes(blob)
    return str(path)


@pytest.mark.parametrize("group", ["param.", "buf.", "opt.", "mask"])
def test_every_renamed_record_is_format_error(tmp_path, interrupted_run, group):
    offsets = [at for name, kind, at in _records_in(interrupted_run)
               if (kind == 1 if group == "mask" else name.startswith(group))]
    assert offsets
    for at in offsets:
        with pytest.raises(FormatError):
            model_from_checkpoint(_renamed(tmp_path, interrupted_run, at))


def test_buffer_of_one_element_is_format_error(tmp_path, interrupted_run):
    manifest, arrays, masks = load_checkpoint(interrupted_run)
    key = next(k for k in arrays if k.startswith("buf."))
    assert arrays[key].shape != (1,)
    arrays[key] = arrays[key][:1]  # numpy would broadcast it into the buffer
    path = str(tmp_path / "short.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    with pytest.raises(FormatError, match=f"buffer {key[4:]} has shape"):
        model_from_checkpoint(path)


@pytest.mark.parametrize("damage", ["mode", "prune_rate0", "target_nonzero", "include_stem", None])
def test_incomplete_sparse_record_is_one_format_error(tmp_path, capsys, interrupted_run, damage):
    manifest, arrays, masks = load_checkpoint(interrupted_run)
    if damage is None:
        manifest["sparse"] = None
    else:
        del manifest["sparse"][damage]
    path = str(tmp_path / "sparse.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    with pytest.raises(FormatError, match="sparse record"):
        model_from_checkpoint(path)
    assert cli_main(["eval", "--ckpt", path, "--dataset", "synthetic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1


def _with_sparse_value(tmp_path, src, field, value):
    manifest, arrays, masks = load_checkpoint(src)
    manifest["sparse"][field] = value
    path = str(tmp_path / "sparse.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    return path


@pytest.mark.parametrize("field,value", [
    ("target_nonzero", "x"), ("target_nonzero", True), ("target_nonzero", -1), ("target_nonzero", 2.0),
    ("prune_rate0", float("inf")), ("prune_rate0", None), ("include_stem", 1),
    pytest.param("mode", ["column"], id="mode-value12"),  # its id from when five more rows preceded it
])
def test_sparse_record_value_of_the_wrong_type_is_format_error(tmp_path, interrupted_run, field, value):
    with pytest.raises(FormatError, match="sparse record"):
        model_from_checkpoint(_with_sparse_value(tmp_path, interrupted_run, field, value))


def test_sparse_record_off_its_budget_is_format_error(tmp_path, interrupted_run):
    _, _, _, state = model_from_checkpoint(interrupted_run)
    path = _with_sparse_value(tmp_path, interrupted_run, "target_nonzero", state.nonzero() + 1)
    with pytest.raises(FormatError, match="budget drifted"):
        model_from_checkpoint(path)


def test_non_numeric_target_is_refused_by_resume_and_eval(tmp_path, capsys, tiny_teacher, interrupted_run):
    path = _with_sparse_value(tmp_path, interrupted_run, "target_nonzero", "x")
    with pytest.raises(FormatError, match="sparse record"):
        sparse_distill(tiny_config(tmp_path / "out", **RESUMED_RUN), tiny_teacher["ckpt"], resume=path)
    assert cli_main(["eval", "--ckpt", path, "--dataset", "synthetic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1
    _, _, _, state = model_from_checkpoint(_with_sparse_value(tmp_path, interrupted_run, "prune_rate0", 0))
    assert state.prune_rate0 == 0


@pytest.fixture(scope="module")
def interrupted_column_run(tmp_path_factory, tiny_teacher):
    out = tmp_path_factory.mktemp("interrupted_column")
    return _interrupted(tiny_config(out, **RESUMED_RUN, prune_mode="column"), tiny_teacher["ckpt"], 1)


def test_a_column_checkpoint_with_a_broken_column_is_refused_at_load(tmp_path, capsys, tiny_teacher,
                                                                     interrupted_column_run):
    """One mask entry moves from a live column to a dead one: the nonzero
    count and so the budget hold, the column structure does not."""
    from attndistill.sparse import _as_matrix

    manifest, arrays, masks = load_checkpoint(interrupted_column_run)
    name = next(n for n, mask in masks.items()
                if _as_matrix(mask).shape[0] > 1 and _as_matrix(mask)[0].any() and not _as_matrix(mask)[0].all())
    mat = _as_matrix(masks[name])
    live, dead = np.flatnonzero(mat[0])[0], np.flatnonzero(~mat[0])[0]
    mat[0, live], mat[0, dead] = False, True
    path = str(tmp_path / "broken.atlt")
    save_checkpoint(path, manifest, arrays, masks)
    with pytest.raises(FormatError, match=f"checkpoint {re.escape(path)}: column mask {name} is not column-uniform"):
        model_from_checkpoint(path)
    assert cli_main(["eval", "--ckpt", path, "--dataset", "synthetic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1
    (tmp_path / "run.json").write_text(json.dumps(tiny_config(tmp_path / "run", **RESUMED_RUN,
                                                              prune_mode="column").to_dict()))
    assert cli_main(["distill", "--config", str(tmp_path / "run.json"), "--teacher", tiny_teacher["ckpt"],
                     "--resume", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_cli_resume_from_a_student_file_without_masks_is_one_format_error(tmp_path, capsys, tiny_teacher,
                                                                         interrupted_run):
    """Every student run keeps masks, density 1.0 included, so a rolling file
    stripped of its masks and sparse record does not resume as a dense run."""
    manifest, arrays, _ = load_checkpoint(interrupted_run)
    manifest["sparse"] = None
    path = str(tmp_path / "unmasked.atlt")
    save_checkpoint(path, manifest, arrays, {})
    (tmp_path / "run.json").write_text(json.dumps(tiny_config(tmp_path / "run", **RESUMED_RUN).to_dict()))
    assert cli_main(["distill", "--config", str(tmp_path / "run.json"), "--teacher", tiny_teacher["ckpt"],
                     "--resume", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1
    assert not (tmp_path / "run" / "student.atlt").exists()


def test_masked_values_in_a_checkpoint_are_zeros_for_eval_report_and_resume(tmp_path, tiny_teacher,
                                                                          interrupted_run):
    """A rolling file whose weights hold nonzero values where their masks are
    off evaluates, reports and resumes as the file with zeros there does."""
    manifest, arrays, masks = load_checkpoint(interrupted_run)
    for name, mask in masks.items():
        assert (arrays[f"param.{name}"][~mask] == 0).all()
        arrays[f"param.{name}"][~mask] = 0.5
    dirty = str(tmp_path / "dirty.atlt")
    save_checkpoint(dirty, manifest, arrays, masks)
    cfg = tiny_config(tmp_path, **RESUMED_RUN)
    _, test_ds = load_datasets(cfg)
    assert evaluate(dirty, test_ds, cfg.batch_size) == evaluate(interrupted_run, test_ds, cfg.batch_size)
    assert report(tiny_teacher["ckpt"], dirty) == report(tiny_teacher["ckpt"], interrupted_run)
    finals = [load_checkpoint(sparse_distill(tiny_config(tmp_path / side, **RESUMED_RUN), tiny_teacher["ckpt"],
                                             resume=resume)[0])
              for side, resume in (("clean", interrupted_run), ("dirty", dirty))]
    (_, a_clean, k_clean), (_, a_dirty, k_dirty) = finals
    assert list(a_clean) == list(a_dirty) and list(k_clean) == list(k_dirty)
    for name in a_clean:
        assert a_clean[name].tobytes() == a_dirty[name].tobytes(), name
    for name in k_clean:
        assert np.array_equal(k_clean[name], k_dirty[name]), name


def test_resume_from_a_renamed_velocity_is_format_error(tmp_path, tiny_teacher, interrupted_run):
    at = next(at for name, _, at in _records_in(interrupted_run) if name.startswith("opt."))
    path = _renamed(tmp_path, interrupted_run, at)
    cfg = tiny_config(tmp_path / "out", **RESUMED_RUN)
    with pytest.raises(FormatError, match="missing velocity"):
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=path)


def test_model_from_checkpoint_draws_no_random_numbers(tiny_teacher, interrupted_run, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for path in (tiny_teacher["ckpt"], interrupted_run):
        _, _, masks, state = model_from_checkpoint(path)
        assert (state is None) == (not masks)


@pytest.mark.parametrize("entry, flags, named", [
    ('"lr": NaN', [], "lr"),
    ('"weight_decay": Infinity', [], "weight_decay"),
    ('"temperature": NaN', [], "temperature"),
    ('"lr": 0.1', ["--lr", "nan"], "lr"),
], ids=["lr", "weight_decay", "temperature", "lr_flag"])
def test_cli_non_finite_config_float_is_one_config_error(tmp_path, capsys, entry, flags, named):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text('{"epochs": 1, "synth_train": 20, "synth_test": 10, %s}' % entry)
    rc = cli_main(["train-teacher", "--config", str(cfg_file), "--out-dir", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1 and f"field {named} " in err


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable CPU")
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)], ids=["default", "chosen"])
def test_the_package_runs_blas_on_one_thread_unless_the_caller_chose(env, threads):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    clean = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    clean["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root, os.environ.get("PYTHONPATH", "")])
    probe = "import attndistill.cli; from perfbench.runner import blas_threads_runtime; print(blas_threads_runtime())"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(clean, **env), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "None":
        pytest.skip("the loaded BLAS reports no thread count")
    assert int(proc.stdout) == threads


def test_cli_subprocess_exit_codes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "attndistill.cli", "report", "--teacher", "/missing.atlt",
         "--student", "/missing2.atlt"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().startswith("error: ")


def test_cifar_binary_path_through_trainer(tmp_path, capsys):
    from attndistill.data import write_cifar_binary

    rng = np.random.default_rng(0)
    for name, n in (("data_batch_1.bin", 40), ("data_batch_2.bin", 40), ("test_batch.bin", 20)):
        imgs = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        write_cifar_binary(tmp_path / name, imgs, labels)
    cfg = TrainConfig(out_dir=str(tmp_path / "run"), dataset="cifar10",
                      data_dir=str(tmp_path), epochs=1, batch_size=20, lr=0.01,
                      lr_drops=(), depth="toy", variant="conv", heads=2, seed=0,
                      deterministic=True)
    assert cfg.classes == 10
    train_ds, test_ds = load_datasets(cfg)
    assert len(train_ds) == 80 and len(test_ds) == 20
    ckpt, metrics = train_teacher(cfg)
    assert os.path.exists(ckpt)
    assert len(metrics.rows) == 1
    acc = evaluate(ckpt, test_ds, cfg.batch_size)
    for name in ("data_batch_1.bin", "data_batch_2.bin"):  # eval reads only the test file
        os.remove(tmp_path / name)
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", ckpt, "--dataset", "cifar10", "--data-dir", str(tmp_path),
                     "--batch-size", "20"]) == 0
    assert capsys.readouterr().out == f"accuracy: {acc:.4f}\n"


def test_metrics_csv_read_write_roundtrip(tmp_path):
    m = RunMetrics(layer_names=("a.w", "b.w"))
    m.add_row(epoch=0, lr=0.1, total_loss=1.5, ce_loss=1.5, test_acc=0.5,
              density=0.25, global_density=0.4, wall_time=0.0, **{"d:a.w": 0.2, "d:b.w": 0.3})
    path = tmp_path / "m.csv"
    m.write(str(path))
    rows = RunMetrics.read(str(path))
    assert rows[0]["total_loss"] == 1.5
    assert rows[0]["d:b.w"] == 0.3


@pytest.mark.parametrize("row", ["0,0.1", "0,0.1,1.5,2"], ids=["short", "long"])
def test_metrics_row_of_the_wrong_length_is_a_format_error(tmp_path, row):
    path = tmp_path / "m.csv"
    path.write_text(f"epoch,lr,total_loss\n0,0.1,1.5\n{row}\n")
    with pytest.raises(FormatError, match=f"metrics file {re.escape(str(path))} line 3: "):
        RunMetrics.read(str(path))


def test_distill_without_stem_pruning_reports_and_evaluates(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.5, stem_prunable=False)
    ckpt, metrics = sparse_distill(cfg, tiny_teacher["ckpt"])
    model, _, masks, _ = model_from_checkpoint(ckpt)
    assert masks and not any(name.startswith("stem.") for name in masks)
    total, nonzero = count_params(model, masks)
    assert metrics.rows[-1]["global_density"] == pytest.approx(nonzero / total, abs=1e-6)
    r = report(tiny_teacher["ckpt"], ckpt)
    assert (r["student"]["params"], r["student"]["nonzero"]) == (total, nonzero)
    _, test_ds = load_datasets(cfg)
    assert evaluate(ckpt, test_ds, cfg.batch_size) == metrics.rows[-1]["test_acc"]


def _digest_section(path, header):
    """The lines of `path` under the section line `header`, None if it has no such section."""
    sections, lines = {}, None
    with open(path) as f:
        for line in f.read().splitlines():
            if line.startswith("["):
                lines = sections.setdefault(line, [])
            elif line and not line.startswith("#") and lines is not None:
                lines.append(line)
    return sections.get(header)


def test_artifact_digest_script_prints_every_artifact(monkeypatch):
    root = os.path.join(os.path.dirname(__file__), "..")
    script = os.path.join(root, "scripts", "artifact_digest.py")
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = [line.split("  ") for line in proc.stdout.splitlines()]
    assert [path for _, path in digests] == [
        "student26/distill_metrics.csv", "student26/student.atlt", "student26/student_last.atlt",
        "teacher50/teacher.atlt", "toy-distill/distill_metrics.csv", "toy-distill/student.atlt",
        "toy-distill/student_last.atlt", "toy-homogeneous/distill_metrics.csv",
        "toy-homogeneous/student.atlt", "toy-homogeneous/student_last.atlt",
        "toy-teacher/teacher.atlt", "toy-teacher/teacher_metrics.csv", "model-structure",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest, _ in digests)
    graph, step, size, options = proc.stderr.splitlines()[-4:]
    assert re.fullmatch(r"graph MB: toy-teacher \d+\.\d, toy-student \d+\.\d, student26 \d+\.\d", graph)
    assert re.fullmatch(r"step peak MB: toy-distill \d+\.\d, full-distill \d+\.\d", step)
    assert re.fullmatch(r"src/attndistill/\*\.py \d+ lines", size)
    assert re.fullmatch(r"TrainConfig \d+ fields, ModelSpec \d+ fields", options)
    monkeypatch.syspath_prepend(root)
    from perfbench.runner import fingerprint

    fp = fingerprint(None)
    header = f"[numpy {fp['numpy']}, {fp['blas']} {fp['blas_version']}, {fp['cpu']}]"
    want = _digest_section(os.path.join(root, "DIGESTS.txt"), header)
    if want is None:
        pytest.skip(f"DIGESTS.txt has no section {header}, so the digests were not compared")
    assert proc.stdout.splitlines() == want
