import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attndistill.data import (
    CROP_PAD,
    DATASET_STATS,
    RECORD_BYTES,
    Dataset,
    LabeledImage,
    augment,
    batches,
    hflip,
    load_cifar_binary,
    reflect_crop,
    synthetic_dataset,
    write_cifar_binary,
)
from attndistill.errors import ConfigError, FormatError


def _random_raw(n, seed=0):
    rng = np.random.default_rng(seed)
    imgs = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    return imgs, labels


def test_loader_record_arithmetic(tmp_path):
    imgs, labels = _random_raw(10)
    path = tmp_path / "batch.bin"
    write_cifar_binary(path, imgs, labels)
    assert path.stat().st_size == 10 * RECORD_BYTES
    ds = load_cifar_binary(path, classes=10)
    assert len(ds) == 10


def test_loader_first_byte_is_first_label(tmp_path):
    imgs, labels = _random_raw(5, seed=1)
    labels[0] = 7
    path = tmp_path / "batch.bin"
    write_cifar_binary(path, imgs, labels)
    ds = load_cifar_binary(path, classes=10)
    assert ds.labels[0] == 7


def test_loader_roundtrip_identity(tmp_path):
    imgs, labels = _random_raw(8, seed=2)
    path = tmp_path / "batch.bin"
    write_cifar_binary(path, imgs, labels)
    ds = load_cifar_binary(path, classes=10)
    mean, std = DATASET_STATS["cifar10"]
    mean = np.asarray(mean, np.float32).reshape(1, 3, 1, 1)
    std = np.asarray(std, np.float32).reshape(1, 3, 1, 1)
    recovered = np.round((ds.images * std + mean) * 255.0).astype(np.uint8)
    assert np.array_equal(recovered, imgs)
    assert np.array_equal(ds.labels, labels)


def test_loader_truncated_record_reports_offset(tmp_path):
    imgs, labels = _random_raw(3, seed=3)
    path = tmp_path / "batch.bin"
    write_cifar_binary(path, imgs, labels)
    data = path.read_bytes()[:-100]  # chop the tail
    path.write_bytes(data)
    with pytest.raises(FormatError) as e:
        load_cifar_binary(path, classes=10)
    assert str(2 * RECORD_BYTES) in str(e.value)


def test_loader_rejects_out_of_range_label(tmp_path):
    imgs, labels = _random_raw(4, seed=4)
    labels[2] = 11
    path = tmp_path / "batch.bin"
    write_cifar_binary(path, imgs, labels)
    with pytest.raises(FormatError):
        load_cifar_binary(path, classes=10)


def test_loader_is_pure(tmp_path):
    imgs, labels = _random_raw(6, seed=5)
    path = tmp_path / "batch.bin"
    write_cifar_binary(path, imgs, labels)
    a = load_cifar_binary(path, classes=10)
    b = load_cifar_binary(path, classes=10)
    assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)


def test_augment_preserves_shape_and_label():
    rng = np.random.default_rng(6)
    img = LabeledImage(rng.standard_normal((3, 32, 32)).astype(np.float32), 1)
    out = augment(img, np.random.default_rng(7))
    assert out.pixels.shape == (3, 32, 32)
    assert out.label == 1


def test_forced_double_flip_is_identity():
    rng = np.random.default_rng(8)
    img = LabeledImage(rng.standard_normal((3, 32, 32)).astype(np.float32), 0)
    assert np.array_equal(hflip(hflip(img)).pixels, img.pixels)


def test_augment_deterministic_replay():
    rng = np.random.default_rng(9)
    img = LabeledImage(rng.standard_normal((3, 32, 32)).astype(np.float32), 0)
    a = augment(img, np.random.default_rng(11)).pixels
    b = augment(img, np.random.default_rng(11)).pixels
    assert np.array_equal(a, b)


def test_reflect_padding_convention_on_ramp():
    # a 3-wide ramp [a, b, c] reflect-padded must mirror without repeating
    # the border pixel: [c, b, a, b, c, b, a]
    ramp = np.zeros((3, 3, 3), dtype=np.float32)
    ramp[0, 0] = [1.0, 2.0, 3.0]
    padded = np.pad(ramp[:, :1, :], ((0, 0), (0, 0), (2, 2)), mode="reflect")
    assert np.allclose(padded[0, 0], [3, 2, 1, 2, 3, 2, 1])
    # crop with zero offsets returns the top-left window of the padded image
    win = reflect_crop(np.tile(np.arange(32, dtype=np.float32), (3, 32, 1)), CROP_PAD, CROP_PAD)
    assert np.array_equal(win, np.tile(np.arange(32, dtype=np.float32), (3, 32, 1)))


def test_batches_count_and_partial_batch():
    ds = synthetic_dataset(1000, 2, seed=0)
    assert len(list(batches(ds, 100, seed=0, epoch=0))) == 10
    got = list(batches(ds, 15, seed=0, epoch=0))
    assert len(got) == 67
    assert got[-1][0].shape[0] == 10


def test_batches_same_seed_epoch_same_order():
    ds = synthetic_dataset(50, 2, seed=1)
    a = [yb.tolist() for _, yb in batches(ds, 16, seed=5, epoch=2)]
    b = [yb.tolist() for _, yb in batches(ds, 16, seed=5, epoch=2)]
    c = [yb.tolist() for _, yb in batches(ds, 16, seed=5, epoch=3)]
    assert a == b
    assert a != c


def test_batches_augmented_pixels_byte_identical_across_replays():
    ds = synthetic_dataset(40, 2, seed=2)
    a = [xb.data.tobytes() for xb, _ in batches(ds, 10, seed=9, epoch=1)]
    b = [xb.data.tobytes() for xb, _ in batches(ds, 10, seed=9, epoch=1)]
    assert a == b


def test_batches_cover_exact_label_multiset():
    ds = synthetic_dataset(97, 3, seed=2)
    seen = np.concatenate([yb for _, yb in batches(ds, 8, seed=1, epoch=4)])
    assert sorted(seen.tolist()) == sorted(ds.labels.tolist())


def test_batches_eval_path_applies_no_augmentation():
    ds = synthetic_dataset(20, 2, seed=3)
    (xb, yb), = list(batches(ds, 20, seed=0, epoch=0, train=False))
    assert np.array_equal(xb.data, ds.images)
    assert np.array_equal(yb, ds.labels)


def test_batches_reject_empty_and_bad_batch_size():
    ds = synthetic_dataset(10, 2, seed=4)
    empty = Dataset(ds.images[:0], ds.labels[:0], 2)
    with pytest.raises(ConfigError):
        next(batches(empty, 4, 0, 0))
    with pytest.raises(ConfigError):
        next(batches(ds, 0, 0, 0))


def test_synthetic_dataset_has_all_classes():
    ds = synthetic_dataset(100, 2, seed=5)
    assert set(ds.labels.tolist()) == {0, 1}
    assert len(ds) == 100


def test_synthetic_linear_probe_over_90_percent():
    ds = synthetic_dataset(1000, 2, seed=6)
    X = ds.images.reshape(len(ds), -1).astype(np.float64)
    y = ds.labels
    Xtr, ytr, Xte, yte = X[:500], y[:500], X[500:], y[500:]
    ones = np.ones((500, 1))
    W, *_ = np.linalg.lstsq(np.hstack([Xtr, ones]), np.eye(2)[ytr], rcond=None)
    pred = np.hstack([Xte, ones]) @ W
    assert (pred.argmax(1) == yte).mean() > 0.9


def test_synthetic_dataset_hash_replay():
    a = synthetic_dataset(64, 2, seed=7)
    b = synthetic_dataset(64, 2, seed=7)
    c = synthetic_dataset(64, 2, seed=8)
    assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_needs_one_sample_per_class():
    with pytest.raises(ConfigError):
        synthetic_dataset(1, 2, seed=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_augment_output_finite_any_seed(seed):
    img = LabeledImage(np.random.default_rng(0).standard_normal((3, 32, 32)).astype(np.float32), 0)
    out = augment(img, np.random.default_rng(seed))
    assert out.pixels.shape == (3, 32, 32)
    assert np.isfinite(out.pixels).all()


def test_batched_augmentation_equals_per_image_augment():
    ds = synthetic_dataset(57, 3, seed=4)
    for seed in (0, 3, 11):
        for epoch in (0, 1, 5):
            rng = np.random.default_rng([seed, epoch])
            order = rng.permutation(len(ds))
            got = list(batches(ds, 20, seed=seed, epoch=epoch))
            assert [len(yb) for _, yb in got] == [20, 20, 17]
            for b, (xb, yb) in enumerate(got):
                idx = order[20 * b : 20 * (b + 1)]
                ref = np.stack([augment(ds[i], rng).pixels for i in idx])
                assert xb.data.dtype == ref.dtype and xb.data.tobytes() == ref.tobytes()
                assert np.array_equal(yb, ds.labels[idx])
