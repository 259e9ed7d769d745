import json
import os
import subprocess
import sys

import numpy as np
import pytest

from attndistill.checkpoint import load_checkpoint, save_checkpoint
from attndistill.cli import main as cli_main
from attndistill.config import TrainConfig
from attndistill.errors import ConfigError, FormatError
from attndistill.models import (
    Tap,
    build_model,
    count_params,
    pair_taps,
    paired_teacher_blocks,
    spec_by_name,
    toy_spec,
)
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
    cfg = TrainConfig(epochs=200, lr=0.1, lr_drops=(120, 160, 180), lr_drop_factor=0.1,
                      dataset="synthetic", classes=2)
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


def test_deterministic_runs_byte_identical(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path / "run", epochs=2, lr=0.01, lr_drops=(), variant="hybrid",
                      alpha=0.1, beta=10.0, density=0.5)
    sparse_distill(cfg, tiny_teacher["ckpt"])
    first = {
        name: (tmp_path / "run" / name).read_bytes()
        for name in ("distill_metrics.csv", "student.atlt")
    }
    sparse_distill(cfg, tiny_teacher["ckpt"])  # identical config, same out_dir
    for name, blob in first.items():
        assert (tmp_path / "run" / name).read_bytes() == blob, name


def test_resume_reproduces_uninterrupted_rows(tmp_path, tiny_teacher):
    full_cfg = tiny_config(tmp_path / "full", epochs=4, lr=0.01, lr_drops=(), variant="hybrid",
                           alpha=0.1, beta=10.0, density=0.5)
    _, full_metrics = sparse_distill(full_cfg, tiny_teacher["ckpt"])

    # the same 4-epoch run, interrupted after 2 completed epochs
    part_cfg = tiny_config(tmp_path / "part", epochs=4, lr=0.01, lr_drops=(), variant="hybrid",
                           alpha=0.1, beta=10.0, density=0.5)
    sparse_distill(part_cfg, tiny_teacher["ckpt"], stop_after=2)
    resume_cfg = tiny_config(tmp_path / "resumed", epochs=4, lr=0.01, lr_drops=(), variant="hybrid",
                             alpha=0.1, beta=10.0, density=0.5)
    _, resumed = sparse_distill(resume_cfg, tiny_teacher["ckpt"],
                                resume=os.path.join(part_cfg.out_dir, "student_last.atlt"))
    assert [int(r["epoch"]) for r in resumed.rows] == [2, 3]
    target = {int(r["epoch"]): r for r in full_metrics.rows}
    for row in resumed.rows:
        ref = target[int(row["epoch"])]
        for col in ("total_loss", "ce_loss", "kd_loss", "at_loss", "test_acc", "density"):
            assert row[col] == pytest.approx(ref[col], abs=1e-7), (col, row["epoch"])


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
    sparse_distill(tiny_config(out, **RESUMED_RUN), tiny_teacher["ckpt"], stop_after=1)
    return str(out / "student_last.atlt")


@pytest.mark.parametrize("field,value", [("seed", 8), ("density", 0.9), ("epochs", 3), ("alpha", 0.5)])
def test_resume_refuses_a_different_run(tmp_path, tiny_teacher, interrupted_run, field, value):
    cfg = tiny_config(tmp_path, **dict(RESUMED_RUN, **{field: value}))
    with pytest.raises(ConfigError, match=f"different run: {field} "):
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=interrupted_run)
    assert not os.listdir(tmp_path)


def test_resume_refuses_a_teacher_checkpoint(tmp_path, tiny_teacher):
    cfg = tiny_config(tmp_path, **RESUMED_RUN)
    with pytest.raises(ConfigError, match="not a student"):
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=tiny_teacher["ckpt"])


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
        sparse_distill(cfg, tiny_teacher["ckpt"], resume=str(tmp_path / "student_last.atlt"))
    assert (tmp_path / "student.atlt").read_bytes() == final


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


def test_cli_subprocess_exit_codes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "attndistill.cli", "report", "--teacher", "/missing.atlt",
         "--student", "/missing2.atlt"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().startswith("error: ")


def test_cifar_binary_path_through_trainer(tmp_path):
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


def test_metrics_csv_read_write_roundtrip(tmp_path):
    m = RunMetrics(layer_names=("a.w", "b.w"))
    m.add_row(epoch=0, lr=0.1, total_loss=1.5, ce_loss=1.5, test_acc=0.5,
              density=0.25, global_density=0.4, wall_time=0.0, **{"d:a.w": 0.2, "d:b.w": 0.3})
    path = tmp_path / "m.csv"
    m.write(str(path))
    rows = RunMetrics.read(str(path))
    assert rows[0]["total_loss"] == 1.5
    assert rows[0]["d:b.w"] == 0.3


@pytest.mark.parametrize("student,teacher", [("student26", "teacher50"), ("toy", "toy")])
def test_trimmed_teacher_taps_pair_as_the_full_lists(student, teacher):
    s_spec = spec_by_name(student, "student", "hybrid", 10, 3, 8 if student == "student26" else 2)
    t_spec = spec_by_name(teacher, "teacher", "conv", 10, 3, 8)
    taps_s = [Tap(s, b, None) for s, n in enumerate(s_spec.blocks) for b in range(n)]
    taps_t = [Tap(s, b, None) for s, n in enumerate(t_spec.blocks) for b in range(n)]
    keep = paired_teacher_blocks(s_spec, t_spec)
    trimmed = [tap for tap in taps_t if (tap.stage, tap.block) in keep]
    full = pair_taps(taps_s, taps_t)
    assert pair_taps(taps_s, trimmed) == full
    assert len(trimmed) == len({id(t) for _, t in full})
    if student == "student26":  # one tap per stage: the teacher's stage-final block
        assert [(t.stage, t.block) for t in trimmed] == [(0, 2), (1, 3), (2, 5), (3, 2)]
