import mpmath
import numpy as np
import pytest

from attndistill.distill import (
    DistillConfig,
    at_loss,
    attention_map,
    cross_entropy,
    kd_loss,
    loss_terms,
    total_loss,
)
from attndistill.errors import ConfigError, ContractError
from attndistill.tensor import Tensor, grad_check, precision


def test_attention_map_zero_activation():
    out = attention_map(Tensor(np.zeros((2, 3, 4, 4))))
    assert out.shape == (2, 16)
    assert (out.data == 0).all()


def test_attention_map_single_channel_square():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    out = attention_map(Tensor(a)).data
    assert np.allclose(out, (a[:, 0] ** 2).reshape(2, 9), atol=1e-6)


def test_attention_map_two_channel_hand_value():
    a = np.zeros((1, 2, 1, 1), dtype=np.float32)
    a[0, 0], a[0, 1] = 1.0, -1.0
    assert attention_map(Tensor(a)).data[0, 0] == pytest.approx(2.0)


def test_at_loss_identical_maps_is_zero():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
    assert at_loss([a], [a]).item() <= 1e-6


@pytest.mark.parametrize("c", [0.5, 3.0, 100.0])
def test_at_loss_scale_invariance(c):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    # scaling activations by sqrt(c) scales the p=2 map by c
    scaled = (np.sqrt(c) * a).astype(np.float32)
    assert at_loss([Tensor(a)], [Tensor(scaled)]).item() <= 1e-6


def test_at_loss_unit_vector_distance():
    # maps proportional to e1 vs e2: distance sqrt(2)
    a = np.zeros((1, 1, 1, 2), dtype=np.float32)
    a[0, 0, 0, 0] = 3.0
    b = np.zeros((1, 1, 1, 2), dtype=np.float32)
    b[0, 0, 0, 1] = 5.0
    assert at_loss([Tensor(a)], [Tensor(b)]).item() == pytest.approx(np.sqrt(2), abs=1e-5)


def test_at_loss_requires_equal_counts_and_shapes():
    a = Tensor(np.ones((1, 1, 2, 2)))
    with pytest.raises(ContractError):
        at_loss([a, a], [a])
    with pytest.raises(ContractError):
        at_loss([a], [Tensor(np.ones((1, 1, 3, 3)))])


def test_at_loss_nonnegative_and_zero_only_when_proportional():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    b = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    assert at_loss([Tensor(a)], [Tensor(b)]).item() > 1e-3


def test_kd_loss_identical_logits_is_zero():
    z = Tensor(np.random.default_rng(4).standard_normal((5, 7)).astype(np.float32))
    assert kd_loss(z, z, temperature=4.0).item() <= 1e-7


def test_kd_loss_huge_temperature_vanishes():
    rng = np.random.default_rng(5)
    zt = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    zs = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    # without the temperature^2 correction the softened KL collapses to 0
    assert kd_loss(zt, zs, temperature=1e6, sq_correction=False).item() <= 1e-9


def test_kd_loss_against_extended_precision():
    mpmath.mp.dps = 50
    zt, zs, rho = [1.0, 0.0], [0.0, 1.0], 1.0

    def soft(z):
        exps = [mpmath.e ** (v / rho) for v in z]
        tot = sum(exps)
        return [e / tot for e in exps]

    pt, ps = soft(zt), soft(zs)
    expected = float(sum(p * (mpmath.log(p) - mpmath.log(q)) for p, q in zip(pt, ps))) * rho**2
    got = kd_loss(Tensor(np.array([zt])), Tensor(np.array([zs])), temperature=rho).item()
    assert got == pytest.approx(expected, abs=1e-6)


def test_kd_loss_teacher_carries_no_gradient():
    zt = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    zs = Tensor(np.array([[0.5, 0.1]]), requires_grad=True)
    loss = kd_loss(zt, zs, temperature=2.0)
    loss.backward()
    assert zt.grad is None
    assert zs.grad is not None


def test_kd_loss_shape_mismatch():
    with pytest.raises(ContractError):
        kd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), temperature=1.0)


def test_total_loss_alpha_one_beta_zero_is_plain_ce():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.standard_normal((8, 4)).astype(np.float32))
    labels = rng.integers(0, 4, 8)
    cfg = DistillConfig(alpha=1.0, beta=0.0)
    got = total_loss(labels, logits, None, [], [], cfg).item()
    assert got == pytest.approx(cross_entropy(logits, labels).item(), abs=1e-7)


def test_total_loss_identical_teacher_reduces_to_weighted_ce():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    taps = [Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))]
    labels = rng.integers(0, 3, 4)
    cfg = DistillConfig(alpha=0.3, beta=10.0, temperature=2.0)
    got = total_loss(labels, logits, logits, taps, taps, cfg).item()
    expected = 0.3 * cross_entropy(logits, labels).item()
    assert got == pytest.approx(expected, abs=1e-5)


def test_total_loss_matches_component_sum():
    rng = np.random.default_rng(8)
    logits_s = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    logits_t = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    taps_s = [Tensor(rng.standard_normal((6, 3, 4, 4)).astype(np.float32)) for _ in range(2)]
    taps_t = [Tensor(rng.standard_normal((6, 3, 4, 4)).astype(np.float32)) for _ in range(2)]
    labels = rng.integers(0, 5, 6)
    cfg = DistillConfig(alpha=0.1, beta=1000.0, temperature=4.0)
    ce, kd, at = loss_terms(labels, logits_s, logits_t, taps_s, taps_t, cfg)
    expected = 0.1 * ce.item() + 0.9 * kd.item() + 500.0 * at.item()
    assert total_loss(labels, logits_s, logits_t, taps_s, taps_t, cfg).item() == pytest.approx(expected, rel=1e-6)


def test_total_loss_teacher_side_gradient_free():
    rng = np.random.default_rng(9)
    logits_s = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
    logits_t = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
    tap_s = Tensor(rng.standard_normal((3, 2, 2, 2)).astype(np.float32), requires_grad=True)
    tap_t = Tensor(rng.standard_normal((3, 2, 2, 2)).astype(np.float32), requires_grad=True)
    labels = rng.integers(0, 4, 3)
    loss = total_loss(labels, logits_s, logits_t, [tap_s], [tap_t], DistillConfig())
    loss.backward()
    assert logits_t.grad is None and tap_t.grad is None
    assert logits_s.grad is not None and tap_s.grad is not None


def test_components_pass_gradcheck():
    with precision(np.float64):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 3, 4)
        zt = Tensor(rng.standard_normal((4, 3)))
        zs = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        assert grad_check(lambda: cross_entropy(zs, labels), zs) <= 1e-4
        assert grad_check(lambda: kd_loss(zt, zs, 4.0), zs, rng=np.random.default_rng(1)) <= 1e-4
        tap_s = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
        tap_t = Tensor(rng.standard_normal((2, 3, 3, 3)))
        assert grad_check(lambda: at_loss([tap_s], [tap_t]), tap_s, rng=np.random.default_rng(2)) <= 1e-4


def test_config_validation():
    with pytest.raises(ConfigError):
        DistillConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        DistillConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        DistillConfig(beta=-1.0)
