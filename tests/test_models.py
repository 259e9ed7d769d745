import numpy as np
import pytest

from attndistill.errors import ConfigError, ContractError, ShapeError
from attndistill.models import (
    Conv2d,
    ModelSpec,
    build_model,
    count_params,
    pair_taps,
    spec_by_name,
    student_spec,
    teacher50_spec,
    toy_spec,
)
from attndistill.tensor import Tensor


def _toy_pair():
    teacher = build_model(toy_spec("teacher", "conv"), np.random.default_rng(0))
    student = build_model(toy_spec("student", "hybrid"), np.random.default_rng(1))
    return teacher, student


def test_toy_teacher_and_student_tap_shapes_align():
    teacher, student = _toy_pair()
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 32, 32)).astype(np.float32))
    _, tt = teacher.forward_with_taps(x)
    _, ts = student.forward_with_taps(x)
    pairs = pair_taps(ts, tt)
    assert len(pairs) == 3  # one per stage (block counts differ)
    for s_tap, t_tap in pairs:
        assert s_tap.value.shape == t_tap.value.shape


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
    assert len(taps) == sum(m.spec.blocks)


def test_forward_deterministic():
    m = build_model(toy_spec("student", "hybrid"), np.random.default_rng(6))
    x = Tensor(np.random.default_rng(7).standard_normal((2, 3, 32, 32)).astype(np.float32))
    a, taps_a = m.forward_with_taps(x)
    b, taps_b = m.forward_with_taps(x)
    assert np.array_equal(a.data, b.data)
    for ta, tb in zip(taps_a, taps_b):
        assert np.array_equal(ta.value.data, tb.value.data)


def test_forward_rejects_wrong_shape():
    m = build_model(toy_spec("student", "hybrid"), np.random.default_rng(8))
    with pytest.raises(ShapeError):
        m.forward_with_taps(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))


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


def test_count_params_rejects_partial_masks():
    _, student = _toy_pair()
    masks = {n: np.ones(p.shape, np.float32) for n, p in list(student.prunable().items())[:-1]}
    with pytest.raises(ContractError):
        count_params(student, masks)


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


def test_pair_taps_blockwise_when_counts_match():
    a = build_model(toy_spec("student", "hybrid"), np.random.default_rng(16))
    b = build_model(toy_spec("student", "hybrid"), np.random.default_rng(17))
    x = Tensor(np.random.default_rng(18).standard_normal((1, 3, 32, 32)).astype(np.float32))
    _, ta = a.forward_with_taps(x)
    _, tb = b.forward_with_taps(x)
    pairs = pair_taps(ta, tb)
    assert len(pairs) == len(ta)
    assert all(p[0].stage == p[1].stage and p[0].block == p[1].block for p in pairs)


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
