import gc
import multiprocessing
import re
import weakref

import numpy as np
import pytest

from attndistill.errors import ConfigError, NumericError, ShapeError
from attndistill.models import (
    Bottleneck,
    Conv2d,
    ModelSpec,
    build_model,
    count_flops,
    count_params,
    spec_by_name,
    student_spec,
    teacher50_spec,
    toy_spec,
)
import attndistill.tensor as T
from attndistill.distill import DistillConfig, combine_terms, loss_terms
from attndistill.sparse import apply_mask, compacted, init_mask
from attndistill.tensor import Tensor, no_grad, precision
from conftest import assert_worker_idle, hand_offs


def _toy_pair():
    teacher = build_model(toy_spec("teacher", "conv"), np.random.default_rng(0))
    student = build_model(toy_spec("student", "hybrid"), np.random.default_rng(1))
    return teacher, student


def test_toy_teacher_and_student_tap_shapes_align():
    teacher, student = _toy_pair()
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 32, 32)).astype(np.float32))
    _, tt = teacher.forward_with_taps(x)
    _, ts = student.forward_with_taps(x)
    assert len(ts) == len(tt) == 3  # one per stage
    for a, b in zip(ts, tt):
        assert a.shape == b.shape


def test_teacher50_and_student26_stage_taps_align():
    teacher = build_model(teacher50_spec(), np.random.default_rng(0))
    student = build_model(student_spec("student26"), np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).standard_normal((1, 3, 32, 32)).astype(np.float32))
    with no_grad():
        _, tt = teacher.forward_with_taps(x)
        _, ts = student.forward_with_taps(x)
    assert len(ts) == len(tt) == 4
    assert [a.shape[2:] for a in ts] == [b.shape[2:] for b in tt] == [(32, 32), (16, 16), (8, 8), (4, 4)]


def _block_outputs_and_taps(teacher, two_cpus, monkeypatch):
    """Weak references to every block output of one graphless forward of
    two images, and its taps, with refcounting alone to free them."""
    outputs, forward = [], Bottleneck.forward

    def spy(blk, *args, **kwargs):
        out = forward(blk, *args, **kwargs)
        outputs.append(weakref.ref(out))
        return out

    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 32, 32)).astype(np.float32))
    with monkeypatch.context() as m:
        m.setattr(T, "_TWO_CPUS", two_cpus)
        m.setattr(Bottleneck, "forward", spy)
        gc.disable()
        try:
            with no_grad():
                _, taps = teacher.forward_with_taps(x)
        finally:
            gc.enable()
    return outputs, taps


def test_a_graphless_forward_keeps_only_the_stage_taps(monkeypatch):
    """With no graph recorded, every block output but a stage's last is
    freed by refcounting alone once the next block has read it. With two
    CPUs each image runs the blocks in its own thread, and every block
    output of either half is freed once the halves' taps are joined."""
    teacher, _ = _toy_pair()
    outputs, taps = _block_outputs_and_taps(teacher, False, monkeypatch)
    alive = [ref() for ref in outputs if ref() is not None]
    assert len(outputs) == sum(teacher.spec.blocks) == 6
    assert len(alive) == len(taps) == 3 and all(a is t for a, t in zip(alive, taps))
    outputs, taps = _block_outputs_and_taps(teacher, True, monkeypatch)
    assert len(outputs) == 2 * 6 and all(ref() is None for ref in outputs)
    assert len(taps) == 3 and all(t.shape[0] == 2 for t in taps)


def _column_student26():
    m = build_model(student_spec("student26"), np.random.default_rng(0))
    state = init_mask(m, 0.5, np.random.default_rng(1), mode="column")
    apply_mask(state, m)
    return m, state


# name -> (model and sparse state, batch sizes)
SPLIT_MODELS = {
    "toy-teacher": (lambda: (build_model(toy_spec("teacher", "conv"), np.random.default_rng(0)), None), (100, 99, 1)),
    "toy-hybrid": (lambda: (build_model(toy_spec("student", "hybrid"), np.random.default_rng(1)), None), (100, 99, 1)),
    "toy-homogeneous": (lambda: (build_model(toy_spec("student", "homogeneous"), np.random.default_rng(2)), None),
                        (100, 99, 1)),
    "teacher50": (lambda: (build_model(teacher50_spec(), np.random.default_rng(3)), None), (8, 7)),
    "student26-column": (_column_student26, (8, 7)),
}


def _eval_forward_bytes(model, state, x):
    with no_grad(), compacted(state, model):
        logits, taps = model.forward_with_taps(x)
    return [t.data.tobytes() for t in (logits, *taps)]


@pytest.mark.parametrize("name", SPLIT_MODELS)
def test_a_no_grad_eval_forward_split_by_batch_is_the_whole_batch_forward(name, monkeypatch):
    """Each half of the batch runs the trunk in its own thread, one hand-off
    per forward (none at B=1), and logits and taps keep the bytes of the
    one-CPU forward: per image, every op before `fc` is the whole batch's,
    and `fc` runs once on the joined features."""
    handed = hand_offs(monkeypatch)
    build, sizes = SPLIT_MODELS[name]
    model, state = build()
    for B in sizes:
        x = Tensor(np.random.default_rng(B).standard_normal((B, 3, 32, 32)).astype(np.float32))
        monkeypatch.setattr(T, "_TWO_CPUS", False)
        inline = _eval_forward_bytes(model, state, x)
        assert not handed
        monkeypatch.setattr(T, "_TWO_CPUS", True)
        assert _eval_forward_bytes(model, state, x) == inline
        assert len(handed) == (B > 1)
        handed.clear()


def _stem_batches(model, monkeypatch):
    """The batch size of every call of `model`'s stem from now on."""
    sizes, forward = [], type(model.stem).forward

    def spy(layer, x):
        if layer is model.stem:
            sizes.append(x.shape[0])
        return forward(layer, x)

    monkeypatch.setattr(type(model.stem), "forward", spy)
    return sizes


def test_a_training_mode_or_recorded_forward_never_splits_its_batch(monkeypatch):
    """Batch norm's batch statistics need the whole batch, and so does the
    graph: a training-mode forward, recorded or not, and a recorded
    eval-mode forward run their stem on all of it."""
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    _, student = _toy_pair()
    sizes = _stem_batches(student, monkeypatch)
    x = Tensor(np.random.default_rng(2).standard_normal((6, 3, 32, 32)).astype(np.float32))
    with no_grad():
        student.forward_with_taps(x, training=True)
    student.forward_with_taps(x, training=True)
    student.forward_with_taps(x, training=False)
    assert sizes == [6, 6, 6]
    with no_grad():
        student.forward_with_taps(x, training=False)
    assert sizes[3:] == [3, 3]


def test_a_float64_no_grad_forward_stays_float64_in_both_halves(monkeypatch):
    """The worker runs its half under the caller's grad mode and default
    dtype: every block of either half sees float64 and no grad mode, and
    its output stays float64, with the one-CPU bytes."""
    seen, forward = [], Bottleneck.forward

    def spy(blk, *args, **kwargs):
        out = forward(blk, *args, **kwargs)
        seen.append((T.default_dtype(), T._grad_enabled(), out.data.dtype))
        return out

    monkeypatch.setattr(Bottleneck, "forward", spy)
    with precision(np.float64):
        student = build_model(toy_spec("student", "hybrid"), np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).standard_normal((6, 3, 32, 32)))
        monkeypatch.setattr(T, "_TWO_CPUS", False)
        inline = _eval_forward_bytes(student, None, x)
        monkeypatch.setattr(T, "_TWO_CPUS", True)
        split = _eval_forward_bytes(student, None, x)
    assert len(seen) == 3 * 3 and set(seen) == {(np.float64, False, np.dtype(np.float64))}
    assert split == inline


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # numpy's, from either thread
def test_an_error_in_the_workers_half_raises_in_the_caller(monkeypatch):
    """Non-finite images only in the second half make only the worker's
    attention logits non-finite: the error raises here, and the worker is
    idle for the next forward, which splits again."""
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    handed = hand_offs(monkeypatch)
    _, student = _toy_pair()
    x = np.random.default_rng(2).standard_normal((6, 3, 32, 32)).astype(np.float32)
    bad = x.copy()
    bad[3:] = np.inf
    with no_grad(), pytest.raises(NumericError, match="local_attention logits"):
        student.forward_with_taps(Tensor(bad))
    assert_worker_idle()
    monkeypatch.setattr(T, "_TWO_CPUS", False)
    inline = _eval_forward_bytes(student, None, Tensor(x))
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    assert _eval_forward_bytes(student, None, Tensor(x)) == inline
    assert len(handed) == 2
    assert_worker_idle()


def test_a_forked_child_runs_a_split_forward(monkeypatch):
    """A child forked after the worker started has no worker thread: it
    starts its own, and its split forward gives the parent's bytes."""
    monkeypatch.setattr(T, "_TWO_CPUS", True)
    handed = hand_offs(monkeypatch)
    teacher, _ = _toy_pair()
    x = Tensor(np.random.default_rng(2).standard_normal((6, 3, 32, 32)).astype(np.float32))
    want = _eval_forward_bytes(teacher, None, x)
    assert len(handed) == 1

    def child():
        handed.clear()
        if _eval_forward_bytes(teacher, None, x) != want or len(handed) != 1:
            raise SystemExit(3)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    hung = proc.is_alive()
    if hung:
        proc.kill()
        proc.join()
    assert not hung and proc.exitcode == 0


def _spatial_convs(model):
    return [n for n, layer in model.named_layers() if isinstance(layer, Conv2d) and layer.k > 1]


def test_hybrid_has_exactly_one_spatial_conv():
    _, student = _toy_pair()
    assert len(_spatial_convs(student)) == 1


def test_homogeneous_has_no_spatial_conv():
    m = build_model(toy_spec("student", "homogeneous"), np.random.default_rng(3))
    assert _spatial_convs(m) == []


def test_forward_tap_count_and_logits_shape():
    m = build_model(toy_spec("student", "hybrid", classes=10), np.random.default_rng(4))
    x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 32, 32)).astype(np.float32))
    logits, taps = m.forward_with_taps(x)
    assert logits.shape == (2, 10)
    assert len(taps) == len(m.spec.blocks)


def test_forward_deterministic():
    m = build_model(toy_spec("student", "hybrid"), np.random.default_rng(6))
    x = Tensor(np.random.default_rng(7).standard_normal((2, 3, 32, 32)).astype(np.float32))
    a, taps_a = m.forward_with_taps(x)
    b, taps_b = m.forward_with_taps(x)
    assert np.array_equal(a.data, b.data)
    for ta, tb in zip(taps_a, taps_b):
        assert np.array_equal(ta.data, tb.data)


@pytest.mark.parametrize("spec", [toy_spec("teacher", "conv"), toy_spec("student", "hybrid"),
                                  toy_spec("student", "homogeneous"), student_spec("student26")],
                         ids=["toy_conv", "toy_hybrid", "toy_homogeneous", "student26"])
def test_eval_forward_without_a_graph_has_the_bytes_of_the_recorded_one(spec):
    """With no graph, BN, ReLU and the add write into the layers' own
    outputs; logits and taps keep their bytes and the batch is not written."""
    model = build_model(spec, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for layer in model.named_buffers().values():  # running statistics that are not the identity
        layer[...] = rng.uniform(0.5, 1.5, layer.shape)
    xs = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    x = Tensor(xs.copy())
    logits, taps = model.forward_with_taps(x, training=False)
    assert logits.requires_grad
    with no_grad():
        free_logits, free_taps = model.forward_with_taps(x, training=False)
    assert not free_logits.requires_grad and x.data.tobytes() == xs.tobytes()
    assert free_logits.data.tobytes() == logits.data.tobytes()
    assert [t.data.tobytes() for t in free_taps] == [t.data.tobytes() for t in taps]


def test_forward_rejects_wrong_shape():
    m = build_model(toy_spec("student", "hybrid"), np.random.default_rng(8))
    with pytest.raises(ShapeError):
        m.forward_with_taps(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))


def test_forward_rejects_a_wrong_width():
    m = build_model(toy_spec("teacher", "conv"), np.random.default_rng(8))
    with pytest.raises(ShapeError, match=r"expected \(B, 3, 32, 32\), got \(2, 3, 32, 16\)"):
        m.forward_with_taps(Tensor(np.zeros((2, 3, 32, 16), dtype=np.float32)))


def test_count_params_dense_equals_total():
    _, student = _toy_pair()
    total, nonzero = count_params(student)
    assert total == nonzero == sum(t.size for t in student.named_params().values())


def test_count_params_all_zero_masks():
    _, student = _toy_pair()
    masks = {n: np.zeros(p.shape, dtype=np.float32) for n, p in student.prunable().items()}
    total, nonzero = count_params(student, masks)
    exempt = total - sum(p.size for p in student.prunable().values())
    assert nonzero == exempt


def test_count_params_stable_across_forward_backward():
    m = build_model(toy_spec("student", "hybrid"), np.random.default_rng(9))
    before = count_params(m)
    x = Tensor(np.random.default_rng(10).standard_normal((2, 3, 32, 32)).astype(np.float32))
    logits, _ = m.forward_with_taps(x, training=True)
    import attndistill.tensor as T

    T.tsum(logits).backward()
    assert count_params(m) == before


def test_single_conv_flops_hand_value():
    # 3x3 conv, 64 -> 64 channels on 8x8: 2 * 9 * 64 * 64 * 8 * 8
    spec = ModelSpec("teacher", "conv", "toy", (64,), (1,), 3, 8, classes=2, input_hw=8, expansion=1)
    m = build_model(spec, np.random.default_rng(11))
    conv_layer = next(l for n, l in m.named_layers() if n == "s0.b0.conv2")
    assert conv_layer.flops() == 2 * 9 * 64 * 64 * 8 * 8 == 4_718_592


def test_single_attention_flops_hand_value():
    spec = ModelSpec("student", "hybrid", "toy", (64,), (1,), 3, 8, classes=2, input_hw=8, expansion=1)
    m = build_model(spec, np.random.default_rng(12))
    sa = next(l for n, l in m.named_layers() if n == "s0.b0.sa")
    assert sa.flops() == 2 * 3 * 64 * 64 * 64 + 3 * (2 * 9 * 64 * 64) == 1_794_048


def test_column_masked_flops_hand_values():
    spec = ModelSpec("student", "hybrid", "toy", (64,), (1,), 3, 8, classes=2, input_hw=8, expansion=1)
    m = build_model(spec, np.random.default_rng(12))
    dense = count_flops(m)
    half = np.zeros((64, 64, 1, 1), dtype=np.float32)
    half[:, ::2] = 1  # 32 of the 64 input channels (matrix columns) live
    conv1 = count_flops(m, {"s0.b0.conv1.w": half})
    assert dense - conv1 == 2 * 64 * 64 * 64 - 2 * 32 * 64 * 64 == 262_144
    rows = np.zeros((64, 64), dtype=np.float32)
    rows[::2] = 1  # a projection is (c_in, c_out): its matrix columns are rows
    sa = count_flops(m, {f"s0.b0.sa.{n}": rows for n in ("w_q", "w_k", "w_v")})
    sa_dense = next(l for n, l in m.named_layers() if n == "s0.b0.sa").flops()
    # projections halve; content logits, positional logits and mixing stay dense
    assert sa - (dense - sa_dense) == 2 * 3 * 32 * 64 * 64 + 3 * (2 * 9 * 64 * 64) == 1_007_616


@pytest.mark.parametrize("spec", [toy_spec("teacher", "conv"), toy_spec("student", "hybrid"),
                                  toy_spec("student", "homogeneous")], ids=lambda s: s.variant)
@pytest.mark.parametrize("mode", ["irregular", "column"])
def test_all_ones_masks_count_the_dense_flops(spec, mode):
    from attndistill.sparse import init_mask

    m = build_model(spec, np.random.default_rng(0))
    assert count_flops(m, init_mask(m, 1.0, np.random.default_rng(1), mode=mode).masks) == count_flops(m)
    assert count_flops(m, init_mask(m, 0.5, np.random.default_rng(1), mode=mode).masks) < count_flops(m)


def test_attention_flops_grow_only_through_logit_terms():
    def sa_flops(extent):
        spec = ModelSpec("student", "hybrid", "toy", (64,), (1,), extent, 8,
                         classes=2, input_hw=8, expansion=1)
        m = build_model(spec, np.random.default_rng(13))
        return next(l for n, l in m.named_layers() if n == "s0.b0.sa").flops()

    hw = 8 * 8
    proj = 2 * 3 * 64 * 64 * hw
    for k in (3, 5, 7):
        assert sa_flops(k) == proj + 3 * (2 * k * k * 64 * hw)


def test_projection_params_constant_conv_params_quadratic_in_k():
    def param_sizes(extent):
        spec = toy_spec("student", "hybrid", extent=extent)
        m = build_model(spec, np.random.default_rng(14))
        proj = sum(p.size for n, p in m.prunable().items() if n.endswith((".w_q", ".w_k", ".w_v")))
        return proj

    assert param_sizes(3) == param_sizes(5) == param_sizes(7)

    def conv_kernel_size(extent):
        spec = ModelSpec("teacher", "conv", "toy", (8,), (1,), extent, 2, classes=2, expansion=2)
        m = build_model(spec, np.random.default_rng(15))
        # conv spatial layers are built at 3x3 regardless of extent; compare raw formula
        return extent * extent * 8 * 8

    assert conv_kernel_size(5) / conv_kernel_size(3) == pytest.approx(25 / 9)


def test_full_scale_presets():
    teacher = teacher50_spec(10)
    assert teacher.blocks == (3, 4, 6, 3)
    s26 = student_spec("student26", "hybrid", 10)
    assert s26.blocks == (1, 2, 4, 1)
    s38 = student_spec("student38", "homogeneous", 10)
    assert s38.blocks == (2, 3, 5, 2)
    assert spec_by_name("toy", "student", "hybrid", 2, 3, 2).depth == "toy"
    with pytest.raises(ConfigError):
        spec_by_name("resnet9000", "student", "hybrid", 2, 3, 2)


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        ModelSpec("student", "hybrid", "toy", (6,), (1,), 3, 4, classes=2)  # 6 % 4 != 0
    with pytest.raises(ConfigError):
        ModelSpec("student", "hybrid", "toy", (4,), (1,), 4, 2, classes=2)  # even extent
    with pytest.raises(ConfigError):
        ModelSpec("student", "cubist", "toy", (4,), (1,), 3, 2, classes=2)


@pytest.mark.parametrize("change, named", [
    (dict(classes=0), "classes"), (dict(input_hw=-4), "input_hw"), (dict(blocks=(1, 0)), "blocks[1]"),
    (dict(expansion=0), "expansion"), (dict(extent=False), "extent"), (dict(widths=(4, 2.5)), "widths[1]"),
])
def test_spec_refuses_a_count_that_is_not_a_positive_integer(change, named):
    spec = dict(role="student", variant="conv", depth="toy", widths=(4, 8), blocks=(1, 1), extent=3, heads=2)
    with pytest.raises(ConfigError, match=rf"field {re.escape(named)} must be an integer >= "):
        ModelSpec(**dict(spec, **change))
    ModelSpec(**spec)


def test_prunable_set_excludes_exempt_tensors():
    _, student = _toy_pair()
    prunable = student.prunable()
    for name in prunable:
        assert name.endswith((".w", ".w_q", ".w_k", ".w_v"))
        assert not name.startswith("fc")
    all_names = set(student.named_params())
    exempt = all_names - set(prunable)
    assert any("rel_pos" in n for n in exempt)
    assert any("gamma" in n for n in exempt)
    assert {"fc.w", "fc.b"} <= exempt


def test_stem_exclusion_switch():
    _, student = _toy_pair()
    with_stem = student.prunable(include_stem=True)
    without = student.prunable(include_stem=False)
    assert set(with_stem) - set(without) == {"stem.w"}


def _step_bytes(kd_at):
    """The loss and every parameter gradient of one recorded step, as
    bytes: cross-entropy for the toy teacher, or KD+AT against it for the
    toy hybrid student."""
    teacher, student = _toy_pair()
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((4, 3, 32, 32)).astype(np.float32))
    y = rng.integers(0, 2, 4)
    model, cfg, logits_t, taps_t = teacher, DistillConfig(alpha=1.0, beta=0.0), None, []
    if kd_at:
        with no_grad():
            logits_t, taps_t = teacher.forward_with_taps(x)
        model, cfg = student, DistillConfig(alpha=0.1, beta=1000.0)
    logits, taps = model.forward_with_taps(x, training=True)
    loss = combine_terms(*loss_terms(y, logits, logits_t, taps, taps_t, cfg), cfg)
    loss.backward()
    return [loss.data.tobytes()] + [t.grad.tobytes() for t in model.named_params().values()]


@pytest.mark.parametrize("kd_at", [False, True], ids=["teacher_ce", "student_kd_at"])
def test_a_step_with_the_granted_writes_has_the_bytes_of_one_without(kd_at, monkeypatch):
    """Every ReLU and residual add of a recorded step writes into the
    array of the op before it, and the loss and every gradient keep their
    bytes against a step in which no op writes in place."""
    scratch, recorded_writes = T._scratch, []

    def spy(a, parents, overwrite):
        into = scratch(a, parents, overwrite)
        recorded_writes.append(into is not None and T._records(parents))
        return into

    monkeypatch.setattr(T, "_scratch", spy)
    granted = _step_bytes(kd_at)
    blocks = sum(toy_spec("student" if kd_at else "teacher", "conv").blocks)
    assert sum(recorded_writes) == 1 + 4 * blocks  # the stem's ReLU; each block's two ReLUs, add and ReLU
    monkeypatch.setattr(T, "_scratch", lambda a, parents, overwrite: None)
    assert _step_bytes(kd_at) == granted
