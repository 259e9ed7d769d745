"""Tests of the benchmark itself (not of attndistill).

Run from the repository root:  python3 -m pytest perfbench/tests -q
The workload runs here use smaller datasets than the benchmark does.
"""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from attndistill import sparse, train  # noqa: E402
from attndistill.config import TrainConfig  # noqa: E402
from attndistill.models import build_model, toy_spec  # noqa: E402
from perfbench import checks, metrics, runner  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SMALL = {
    "toy-distill": dict(synth_train=200, synth_test=100),
    "toy-teacher": dict(synth_train=200, synth_test=100),
    "full-distill": dict(synth_train=8, synth_test=8),
}


def scaled(w, **sizes):
    """The same workload on other dataset sizes or epoch counts."""
    return replace(w, teacher=dict(w.teacher, **sizes),
                   student=dict(w.student, **sizes) if w.student else {})


def _package_bindings():
    """Identity of every module attribute and class attribute in the package."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not name.startswith("attndistill"):
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if inspect.isclass(val) and val.__module__ == name:
                for cattr, cval in vars(val).items():
                    out[(name, attr, cattr)] = cval
    return out


def _same_bindings(before, after):
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_emits_every_metric_and_restores_wrappers(name, trace, tmp_path):
    before = _package_bindings()
    w = scaled(WORKLOADS[name], **SMALL[name])
    result = runner.run(w, seed=3, seconds=0, trace=trace, work_root=str(tmp_path))
    assert _same_bindings(before, _package_bindings())
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == {m[0] for m in expected}
    units = {m[0]: m[1] for m in expected}
    for key, value in result["metrics"].items():
        assert units[key] and math.isfinite(value), key
    if trace:
        m = result["metrics"]
        assert m["tensor.graph_nodes"] > 0
        phases = sum(m[f"step.{p}_s"] for p in metrics.STEP_PHASES)
        assert m["step.other_s"] >= 0.0
        assert phases + m["step.other_s"] == pytest.approx(m["step.wall_s"], rel=1e-9)
        assert os.path.getsize(result["details"]["trace_file"]) > 0
    else:
        assert all(v > 0 for v in result["metrics"].values())


def test_failed_setup_is_counted_and_wrappers_restored(tmp_path):
    before = _package_bindings()
    w = scaled(WORKLOADS["toy-teacher"], epochs=0)  # rejected by TrainConfig
    result = runner.run(w, seed=1, seconds=0, trace=True, work_root=str(tmp_path))
    assert _same_bindings(before, _package_bindings())
    assert result["failed"] == 1 and result["metrics"] == {}
    assert "ConfigError" in result["failures"][0]


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert bench["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bd}
                                   for n, u, b, bd in metrics.END_TO_END]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b, _ in metrics.PER_LAYER]
    assert all(moves for *_, moves in metrics.PER_LAYER)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy-teacher",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _toy_state(mode, seed=0):
    model = build_model(toy_spec("student", "hybrid"), np.random.default_rng(seed))
    return model, sparse.init_mask(model, 0.25, seed, mode=mode)


def test_mask_checks_catch_budget_and_structure_defects():
    _, state = _toy_state("irregular")
    assert checks.mask_state(state) == []
    first = next(iter(state.masks.values())).reshape(-1)
    first[0] = 1 - first[0]
    assert checks.mask_state(state)

    _, state = _toy_state("column")
    assert checks.mask_state(state) == []
    name = "s0.b0.conv1.w"
    state.masks[name][0, :, 0, 0] = 1 - state.masks[name][0, :, 0, 0]
    assert any("column-uniform" in f for f in checks.mask_state(state))

    _, state = _toy_state("column")
    state.target_nonzero += 10**6
    assert any("budget gap" in f for f in checks.mask_state(state))


def test_checkpoint_and_trajectory_checks_catch_differences(tmp_path):
    model, state = _toy_state("irregular")
    cfg = TrainConfig(out_dir=str(tmp_path))
    path = train.save_model_checkpoint(str(tmp_path / "s.atlt"), model, cfg, "student", 1,
                                       phases=[], state=state)
    assert checks.checkpoint_roundtrip(path, model, state) == []
    model.fc.b.data[0] = np.nextafter(model.fc.b.data[0], np.float32(1))
    assert checks.checkpoint_roundtrip(path, model, state)

    m = train.RunMetrics()
    m.add_row(epoch=0, total_loss=1.0, wall_time=3.0)
    m.write(str(tmp_path / "a.csv"))
    m.rows[0]["wall_time"] = 4.0
    m.write(str(tmp_path / "b.csv"))
    assert checks.same_trajectory(str(tmp_path / "a.csv"), str(tmp_path / "b.csv")) == []
    m.rows[0]["total_loss"] = float("nan")
    m.write(str(tmp_path / "c.csv"))
    assert checks.same_trajectory(str(tmp_path / "a.csv"), str(tmp_path / "c.csv"))
    assert checks.finite_losses(str(tmp_path / "c.csv"))


def test_tail_keeps_ten_samples_beyond():
    assert metrics.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    xs = list(range(30))
    value, pct = metrics.tail(xs)
    assert sum(x > value for x in xs) == 10 and pct == pytest.approx(100 * 20 / 30)
