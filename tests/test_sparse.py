import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attndistill.errors import ConfigError, ContractError
from attndistill.models import ModelSpec, build_model, student_spec, toy_spec
from attndistill.optim import SGD
from attndistill.sparse import (
    _as_matrix,
    _scores,
    _units,
    apply_mask,
    audit_coverage,
    column_prune_regrow_epoch,
    compacted,
    decay_prune_rate,
    init_mask,
    prune_regrow_epoch,
)
from attndistill.tensor import Tensor, no_grad


def _toy_student(seed=0):
    return build_model(toy_spec("student", "hybrid"), np.random.default_rng(seed))


def _tiny_two_layer(seed=0):
    # 1 stage, 1 block: conv1/sa/conv3/down kernels form the prunable set
    spec = ModelSpec("student", "hybrid", "toy", (4,), (1,), 3, 2, classes=2,
                     input_hw=8, expansion=2)
    return build_model(spec, np.random.default_rng(seed))


def test_init_mask_dense_is_all_ones():
    m = _toy_student()
    state = init_mask(m, 1.0, np.random.default_rng(0))
    for mask in state.masks.values():
        assert (mask == 1).all()


def test_init_mask_exact_per_layer_rounding():
    m = _toy_student()
    state = init_mask(m, 0.25, np.random.default_rng(1))
    for name, mask in state.masks.items():
        assert np.count_nonzero(mask) == round(0.25 * mask.size)


def test_init_mask_deterministic_replay():
    m = _toy_student()
    s1 = init_mask(m, 0.3, np.random.default_rng(42))
    s2 = init_mask(m, 0.3, np.random.default_rng(42))
    for name in s1.masks:
        assert np.array_equal(s1.masks[name], s2.masks[name])


def test_init_mask_rejects_bad_density():
    m = _toy_student()
    for d in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            init_mask(m, d, np.random.default_rng(0))


def test_apply_mask_identity_when_dense():
    m = _toy_student()
    state = init_mask(m, 1.0, np.random.default_rng(2))
    before = {n: p.data.copy() for n, p in m.prunable().items()}
    apply_mask(state, m)
    for n, p in m.prunable().items():
        assert np.array_equal(p.data, before[n])


def test_masked_forward_equals_manually_zeroed_dense_copy():
    m1 = _toy_student(seed=3)
    m2 = _toy_student(seed=3)
    state = init_mask(m1, 0.4, np.random.default_rng(4))
    apply_mask(state, m1)
    # manually zero the same coordinates in the twin model
    for n, p in m2.prunable().items():
        p.data *= state.masks[n]
    x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 32, 32)).astype(np.float32))
    y1, _ = m1.forward_with_taps(x)
    y2, _ = m2.forward_with_taps(x)
    assert np.abs(y1.data - y2.data).max() <= 1e-7


def test_masked_coordinates_zero_after_optimizer_step():
    m = _toy_student(seed=6)
    state = init_mask(m, 0.25, np.random.default_rng(7))
    apply_mask(state, m)
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    x = Tensor(np.random.default_rng(8).standard_normal((4, 3, 32, 32)).astype(np.float32))
    import attndistill.tensor as T

    for _ in range(3):
        logits, _ = m.forward_with_taps(x, training=True)
        loss = T.tsum(T.mul(logits, logits))
        opt.zero_grad()
        loss.backward()
        opt.step()
        apply_mask(state, m)
        for n, p in m.prunable().items():
            assert (p.data[state.masks[n] == 0] == 0.0).all()


def test_momentum_uniform_on_zero_gradients():
    m = _toy_student(seed=9)
    state = init_mask(m, 0.5, np.random.default_rng(10))
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    state.accumulate_momentum(opt)  # velocities all zero
    mu = state.finalize_epoch_momentum()
    L = len(state.masks)
    assert all(v == pytest.approx(1.0 / L) for v in mu.values())


def test_momentum_concentration_single_layer():
    m = _toy_student(seed=11)
    state = init_mask(m, 0.5, np.random.default_rng(12))
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    target = list(state.masks)[2]
    opt.velocities[target][:] = 3.0
    state.accumulate_momentum(opt)
    mu = state.finalize_epoch_momentum()
    assert mu[target] == pytest.approx(1.0)
    assert sum(mu.values()) == pytest.approx(1.0)


def test_momentum_hand_fed_running_means():
    m = _tiny_two_layer(seed=13)
    state = init_mask(m, 1.0, np.random.default_rng(14))
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    names = list(state.masks)
    # two batches with hand-set velocities
    feeds = [{n: float(i + 1) * (j + 1) for j, n in enumerate(names)} for i in range(2)]
    for feed in feeds:
        for n in names:
            opt.velocities[n][:] = feed[n]
        state.accumulate_momentum(opt)
    mu = state.finalize_epoch_momentum()
    raw = {n: np.mean([f[n] for f in feeds]) for n in names}
    total = sum(raw.values())
    for n in names:
        assert mu[n] == pytest.approx(raw[n] / total, abs=1e-6)


def test_decay_prune_rate_boundaries():
    assert decay_prune_rate(0.5, 0, 10) == pytest.approx(0.5)
    assert decay_prune_rate(0.5, 9, 10) == pytest.approx(0.05)
    assert decay_prune_rate(0.5, 5, 10) == pytest.approx(0.25)
    with pytest.raises(ContractError):
        decay_prune_rate(0.5, 10, 10)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=1, max_value=200))
def test_decay_prune_rate_linear_property(p0, total):
    epochs = np.arange(total)
    rates = [decay_prune_rate(p0, int(e), total) for e in epochs]
    assert all(r1 > r2 for r1, r2 in zip(rates, rates[1:])) or total == 1
    assert rates[0] == pytest.approx(p0)


def test_prune_regrow_noop_at_zero_rate():
    m = _toy_student(seed=15)
    state = init_mask(m, 0.25, np.random.default_rng(16))
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    state.accumulate_momentum(opt)
    before = {n: mask.copy() for n, mask in state.masks.items()}
    state.p_e = 0.0
    prune_regrow_epoch(state, m, opt)
    for n in before:
        assert np.array_equal(state.masks[n], before[n])


def test_prune_regrow_budget_conserved_over_epochs():
    m = _toy_student(seed=17)
    state = init_mask(m, 0.25, np.random.default_rng(18))
    apply_mask(state, m)
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    rng = np.random.default_rng(19)
    target = state.target_nonzero
    for epoch in range(10):
        # synthetic gradients drive momentum
        for n, p in m.prunable().items():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt.step()
        apply_mask(state, m)
        state.accumulate_momentum(opt)
        state.p_e = decay_prune_rate(0.5, epoch, 10)
        prune_regrow_epoch(state, m, opt)
        assert state.nonzero() == target


def test_prune_never_touches_inactive_regrow_never_touches_active():
    m = _toy_student(seed=20)
    state = init_mask(m, 0.25, np.random.default_rng(21))
    apply_mask(state, m)
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    rng = np.random.default_rng(22)
    for n, p in m.prunable().items():
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
        p.data += rng.standard_normal(p.shape).astype(np.float32)
    opt.step()
    apply_mask(state, m)
    state.accumulate_momentum(opt)
    before = {n: mask.copy() for n, mask in state.masks.items()}
    state.p_e = 0.3
    prune_regrow_epoch(state, m, opt)
    for n in before:
        pruned = (before[n] == 1) & (state.masks[n] == 0)
        regrown = (before[n] == 0) & (state.masks[n] == 1)
        # regrown coordinates restart at exactly zero
        assert (m.prunable()[n].data[regrown] == 0.0).all()
        assert (opt.velocities[n][regrown] == 0.0).all()
        assert not (pruned & regrown).any()


def test_prune_regrow_against_exhaustive_sort_oracle():
    """Two-layer toy with hand-set weights and momenta; the selected prune
    and regrow index sets must match a brute-force sort of all candidates."""
    m = _tiny_two_layer(seed=23)
    names = ["s0.b0.conv1.w", "s0.b0.conv3.w"]
    state = init_mask(m, 1.0, np.random.default_rng(24))
    state.masks = {n: state.masks[n] for n in names}  # restrict to two layers
    state.target_nonzero = sum(int(m_.sum()) for m_ in state.masks.values())
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    rng = np.random.default_rng(25)
    params = m.prunable()
    for n in names:
        params[n].data[:] = rng.standard_normal(params[n].shape).astype(np.float32)
        opt.velocities[n][:] = rng.standard_normal(params[n].shape).astype(np.float32)
        state._mu_sum[n] = abs(float(opt.velocities[n].mean())) + 0.1
    state._mu_batches = 1
    weights_before = {n: params[n].data.copy() for n in names}
    vel = {n: opt.velocities[n].copy() for n in names}
    mu_raw = dict(state._mu_sum)
    mu_total = sum(mu_raw.values())

    state.p_e = 0.25
    prune_regrow_epoch(state, m, opt)

    freed = 0
    expect_active = {}
    for n in names:
        w = np.abs(weights_before[n].reshape(-1))
        k = int(0.25 * w.size)
        order = np.argsort(w, kind="stable")
        dropped = set(order[:k].tolist())
        expect_active[n] = set(range(w.size)) - dropped
        freed += k
    # both layers start fully dense, so capacity equals what was pruned;
    # mu-proportional quotas cap at capacity and overflow goes to higher mu
    quota = {}
    caps = {n: int(0.25 * weights_before[n].size) for n in names}
    ideal = {n: mu_raw[n] / mu_total * freed for n in names}
    quota = {n: min(int(ideal[n]), caps[n]) for n in names}
    rem = freed - sum(quota.values())
    for n in sorted(names, key=lambda n: -(ideal[n] - int(ideal[n]))):
        if rem and quota[n] < caps[n]:
            quota[n] += 1
            rem -= 1
    for n in sorted(names, key=lambda n: -(mu_raw[n] / mu_total)):
        take = min(rem, caps[n] - quota[n])
        quota[n] += take
        rem -= take
    for n in names:
        inactive = sorted(set(range(weights_before[n].size)) - expect_active[n])
        vmag = np.abs(vel[n].reshape(-1))
        ranked = sorted(inactive, key=lambda i: (-vmag[i], i))
        expect_active[n] |= set(ranked[: quota[n]])
        got_active = set(np.flatnonzero(state.masks[n].reshape(-1)).tolist())
        assert got_active == expect_active[n]


def _column_scores(w):
    return _scores(_units(w, "column"))


def test_column_scores_hand_value():
    w = np.zeros((2, 1, 1, 1), dtype=np.float32)
    w[0, 0, 0, 0], w[1, 0, 0, 0] = 3.0, 4.0
    assert _column_scores(w)[0] == pytest.approx(25.0)


def test_column_scores_zero_column():
    w = np.zeros((4, 2, 3, 3), dtype=np.float32)
    scores = _column_scores(w)
    assert scores.shape == (2 * 3 * 3,)
    assert (scores == 0).all()


def test_column_scores_row_permutation_invariant():
    rng = np.random.default_rng(26)
    w = rng.standard_normal((6, 3, 3, 3)).astype(np.float32)
    perm = rng.permutation(6)
    assert np.allclose(_column_scores(w), _column_scores(w[perm]))


def test_column_scores_attention_projection_shape():
    w = Tensor(np.random.default_rng(27).standard_normal((5, 8)).astype(np.float32))
    scores = _column_scores(w.data)  # rows are the 8 outputs, columns the 5 inputs
    assert scores.shape == (5,)
    assert np.allclose(scores, (w.data.astype(np.float64) ** 2).sum(axis=1))


def test_irregular_selection_is_a_stable_argsort_of_magnitudes():
    """Weights and velocities drawn from a few levels, signed zeros
    included: pruning drops the first entries of a stable argsort of |w|
    over the active coordinates, regrowth takes the first entries of a
    stable argsort of -|v| over the inactive ones."""
    m = _toy_student(seed=45)
    name = "s2.b0.conv3.w"  # (32, 16, 1, 1)
    state = init_mask(m, 0.5, np.random.default_rng(46))
    state.masks = {name: state.masks[name]}
    state.target_nonzero = int(state.masks[name].sum())
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    rng = np.random.default_rng(47)
    levels = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0], dtype=np.float32)
    w = m.prunable()[name]
    w.data[:] = rng.choice(levels, w.shape)
    opt.velocities[name][:] = rng.choice(levels, w.shape)
    mask0, w0 = state.masks[name].reshape(-1).copy(), w.data.reshape(-1).copy()
    v0 = opt.velocities[name].reshape(-1).copy()
    state.accumulate_momentum(opt)
    state.p_e = 0.3
    prune_regrow_epoch(state, m, opt)

    active = np.flatnonzero(mask0)
    k = int(0.3 * active.size)
    expected = mask0.copy()
    expected[active[np.argsort(np.abs(w0[active]), kind="stable")[:k]]] = 0.0
    inactive = np.flatnonzero(expected == 0)
    expected[inactive[np.argsort(-np.abs(v0[inactive]), kind="stable")[:k]]] = 1.0
    assert np.array_equal(state.masks[name].reshape(-1), expected)


@pytest.mark.parametrize("p_e", [0.3, 0.0])
@pytest.mark.parametrize("mode", ["irregular", "column"])
def test_drifted_budget_raises_before_any_mask_changes(mode, p_e):
    m = _toy_student(seed=48)
    state = init_mask(m, 0.5, np.random.default_rng(49), mode=mode)
    apply_mask(state, m)
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    state.accumulate_momentum(opt)
    column = max(_as_matrix(mask).shape[0] for mask in state.masks.values())
    state.target_nonzero += 1 if mode == "irregular" else column + 1
    masks = {n: mask.copy() for n, mask in state.masks.items()}
    weights = {n: p.data.copy() for n, p in m.prunable().items()}
    state.p_e = p_e
    boundary = prune_regrow_epoch if mode == "irregular" else column_prune_regrow_epoch
    with pytest.raises(ContractError, match=f"{mode} budget drifted"):
        boundary(state, m, opt)
    for n, p in m.prunable().items():
        assert np.array_equal(state.masks[n], masks[n])
        assert np.array_equal(p.data, weights[n])


def test_column_init_and_uniformity():
    m = _toy_student(seed=28)
    state = init_mask(m, 0.5, np.random.default_rng(29), mode="column")
    from attndistill.sparse import _as_matrix

    for n, mask in state.masks.items():
        mat = _as_matrix(mask)
        col_on = mat.sum(axis=0)
        assert set(np.unique(col_on)) <= {0.0, float(mat.shape[0])}
        assert np.count_nonzero(col_on) == round(0.5 * mat.shape[1])


def test_column_noop_at_zero_rate():
    m = _toy_student(seed=30)
    state = init_mask(m, 0.5, np.random.default_rng(31), mode="column")
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    state.accumulate_momentum(opt)
    before = {n: mask.copy() for n, mask in state.masks.items()}
    state.p_e = 0.0
    column_prune_regrow_epoch(state, m, opt)
    for n in before:
        assert np.array_equal(state.masks[n], before[n])


def test_column_epochs_preserve_structure_and_multiples():
    m = _toy_student(seed=32)
    state = init_mask(m, 0.5, np.random.default_rng(33), mode="column")
    apply_mask(state, m)
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    rng = np.random.default_rng(34)
    from attndistill.sparse import _as_matrix

    for epoch in range(10):
        for n, p in m.prunable().items():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt.step()
        apply_mask(state, m)
        state.accumulate_momentum(opt)
        state.p_e = decay_prune_rate(0.5, epoch, 10)
        column_prune_regrow_epoch(state, m, opt)
        for n, mask in state.masks.items():
            mat = _as_matrix(mask)
            col_on = mat.sum(axis=0)
            assert set(np.unique(col_on)) <= {0.0, float(mat.shape[0])}
            assert np.count_nonzero(mask) % mat.shape[0] == 0
    # the weight budget stays within one column of the target
    max_col = max(_as_matrix(mask).shape[0] for mask in state.masks.values())
    assert abs(state.nonzero() - state.target_nonzero) <= max_col


def test_column_prune_exhaustive_oracle():
    """Four columns scored {0.1, 5, 7, 0.2}: pruning two must zero the two
    lowest-score columns."""
    spec = ModelSpec("student", "conv", "toy", (4,), (1,), 3, 2, classes=2,
                     input_hw=8, expansion=2)
    m = build_model(spec, np.random.default_rng(35))
    name = "s0.b0.conv1.w"  # (4, 4, 1, 1): 4 columns of 4 rows
    state = init_mask(m, 1.0, np.random.default_rng(36), mode="column")
    state.masks = {name: state.masks[name]}
    state.target_nonzero = int(state.masks[name].sum())
    w = m.prunable()[name]
    for c, val in enumerate([0.1, 5.0, 7.0, 0.2]):
        w.data[:, c, 0, 0] = np.sqrt(val / 4.0)
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    state.accumulate_momentum(opt)
    state.p_e = 0.5  # 4 active columns -> prune 2
    column_prune_regrow_epoch(state, m, opt)
    col_active = state.masks[name][0, :, 0, 0]
    # scores {0.1, 0.2} pruned; budget regrows 2 columns ranked by momentum
    # (all-zero momentum: stable order regrows the first inactive columns)
    assert np.count_nonzero(state.masks[name]) == state.target_nonzero
    w_mat = w.data.reshape(4, 4)
    # the two high-score columns were never zeroed
    assert (w_mat[:, 1] != 0).all() and (w_mat[:, 2] != 0).all()
    # pruned columns restarted at zero
    assert (w_mat[:, 0] == 0).all() and (w_mat[:, 3] == 0).all()


def test_audit_coverage_detects_mismatch():
    m = _toy_student(seed=37)
    state = init_mask(m, 0.5, np.random.default_rng(38))
    audit_coverage(state, m)  # clean
    state.masks.pop(list(state.masks)[0])
    with pytest.raises(ContractError):
        audit_coverage(state, m)


def test_audit_coverage_refuses_a_mask_that_is_not_bool():
    m = _toy_student(seed=37)
    state = init_mask(m, 0.5, np.random.default_rng(38))
    name = list(state.masks)[0]
    state.masks[name] = state.masks[name].astype(np.float32)  # 0/1 values, the wrong dtype
    with pytest.raises(ContractError, match=f"mask for {name} is float32 .*expected bool"):
        audit_coverage(state, m)


@pytest.mark.parametrize("p_e", [0.3, 0.0])
def test_column_boundary_refuses_a_non_uniform_column_before_any_change(p_e):
    m = _toy_student(seed=45)
    state = init_mask(m, 0.5, np.random.default_rng(46), mode="column")
    apply_mask(state, m)
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    state.accumulate_momentum(opt)
    name = list(state.masks)[-1]  # the last layer, so a check inside the loop would come too late
    mat = _as_matrix(state.masks[name])
    live, dead = np.flatnonzero(mat[0])[0], np.flatnonzero(~mat[0])[0]
    mat[0, live], mat[0, dead] = False, True  # one entry moves: the nonzero count stays
    masks = {n: mask.copy() for n, mask in state.masks.items()}
    weights = {n: p.data.copy() for n, p in m.prunable().items()}
    state.p_e = p_e
    with pytest.raises(ContractError, match=f"column mask {name} is not column-uniform"):
        column_prune_regrow_epoch(state, m, opt)
    for n, p in m.prunable().items():
        assert np.array_equal(state.masks[n], masks[n])
        assert np.array_equal(p.data, weights[n])


def test_apply_mask_shape_mismatch():
    m = _toy_student(seed=39)
    state = init_mask(m, 0.5, np.random.default_rng(40))
    state.masks[list(state.masks)[0]] = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(ContractError):
        apply_mask(state, m)


def test_mode_mismatch_contract():
    m = _toy_student(seed=41)
    state = init_mask(m, 0.5, np.random.default_rng(42), mode="column")
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    state.accumulate_momentum(opt)
    state.p_e = 0.1
    with pytest.raises(ContractError):
        prune_regrow_epoch(state, m, opt)


def test_column_budget_drift_raises_at_every_boundary():
    m = _toy_student(seed=43)
    state = init_mask(m, 0.5, np.random.default_rng(44), mode="column")
    apply_mask(state, m)
    opt = SGD(m.named_params(), lr=0.1, momentum=0.9)
    from attndistill.sparse import _as_matrix

    column = max(_as_matrix(mask).shape[0] for mask in state.masks.values())
    state.target_nonzero += column  # exactly one column off: still allowed
    state.accumulate_momentum(opt)
    state.p_e = 0.0
    column_prune_regrow_epoch(state, m, opt)
    state.target_nonzero += 1  # the no-op boundary at p_e = 0 checks too
    state.accumulate_momentum(opt)
    with pytest.raises(ContractError, match="column budget"):
        column_prune_regrow_epoch(state, m, opt)
    # a target beyond every inactive column cannot be regrown to
    state.target_nonzero = sum(mask.size for mask in state.masks.values()) + 2 * column
    state.accumulate_momentum(opt)
    state.p_e = 0.3
    with pytest.raises(ContractError, match="column budget"):
        column_prune_regrow_epoch(state, m, opt)


COMPACTED_MODELS = {
    "toy-hybrid": (toy_spec("student", "hybrid"), True),
    "toy-homogeneous": (toy_spec("student", "homogeneous"), True),
    "toy-hybrid-dense-stem": (toy_spec("student", "hybrid"), False),
    "student26-hybrid": (student_spec("student26", "hybrid"), True),
}


def _column_student(name, seed=0):
    spec, include_stem = COMPACTED_MODELS[name]
    m = build_model(spec, np.random.default_rng(seed))
    state = init_mask(m, 0.5, np.random.default_rng(seed + 1), mode="column", include_stem=include_stem)
    apply_mask(state, m)
    return m, state


def _live_layers(m):
    return {n for n, layer in m.named_layers() if getattr(layer, "live", None)}


@pytest.mark.parametrize("name", list(COMPACTED_MODELS))
def test_compacted_forward_matches_masked_dense_forward(name):
    m, state = _column_student(name)
    x = Tensor(np.random.default_rng(9).standard_normal((2, 3, 32, 32)).astype(np.float32))
    with no_grad():
        dense = m.forward_with_taps(x)
        with compacted(state, m):
            assert _live_layers(m) == {n.rsplit(".", 1)[0] for n in state.masks}
            for p in m.prunable(include_stem=state.include_stem).values():
                p.data[...] = np.nan  # the forward may read only the live weight slices
            comp = m.forward_with_taps(x)
    assert not _live_layers(m)
    for want, got in zip([dense[0], *dense[1]], [comp[0], *comp[1]]):
        assert np.abs(got.data - want.data).max() <= 1e-5 * np.abs(want.data).max()


@pytest.mark.parametrize("name", ["toy-hybrid", "toy-homogeneous"])  # conv stem, attention stem
def test_compacted_forward_is_refused_while_a_graph_is_recorded(name):
    m, state = _column_student(name)
    x = Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
    with compacted(state, m), pytest.raises(ContractError, match="no graph is recorded"):
        m.forward_with_taps(x, training=False)
    assert not _live_layers(m)


def test_compacted_keeps_the_dense_gemm_where_no_column_is_dead():
    m, state = _column_student("toy-hybrid")
    state.masks["s0.b0.conv1.w"][...] = 1
    state.masks["s1.b0.sa.w_v"][...] = 1
    x = Tensor(np.random.default_rng(9).standard_normal((2, 3, 32, 32)).astype(np.float32))
    with no_grad():
        dense, _ = m.forward_with_taps(x)
        with compacted(state, m):
            layers = dict(m.named_layers())
            assert "s0.b0.conv1" not in _live_layers(m)
            sa = layers["s1.b0.sa"].live
            assert sa["w_v"][0] == slice(None) and isinstance(sa["w_q"][0], np.ndarray)
            comp, _ = m.forward_with_taps(x)
    assert not _live_layers(m)
    assert np.abs(comp.data - dense.data).max() <= 1e-5 * np.abs(dense.data).max()


def test_compacted_gives_nothing_outside_column_mode():
    m = _toy_student()
    for state in (None, init_mask(m, 0.5, np.random.default_rng(1))):
        with compacted(state, m):
            assert not _live_layers(m)
