"""Dataset loading, augmentation, batching, and synthetic fixtures.

Images are stored channel-normalized: raw bytes are scaled to [0, 1] and
shifted/scaled by per-dataset channel statistics at load time, so the
training loop never re-normalizes. Augmentation (horizontal flip with
probability 0.5, then reflect-pad 4 and random 32x32 crop) runs on the
normalized pixels; the evaluation path applies no stochastic transform.

Reflective padding mirrors without repeating the border pixel, e.g. a row
[a, b, c] padded by 2 becomes [c, b, a, b, c, b, a].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .tensor import Tensor

IMAGE_HW = 32
RECORD_BYTES = 1 + 3 * IMAGE_HW * IMAGE_HW
CROP_PAD = 4

# published per-channel mean/std of the pixel values in [0, 1]
DATASET_STATS = {
    "cifar10": ((0.4914, 0.4822, 0.4465), (0.2470, 0.2435, 0.2616)),
    "cifar100": ((0.5071, 0.4865, 0.4409), (0.2673, 0.2564, 0.2762)),
    "synthetic": ((0.5, 0.5, 0.5), (0.25, 0.25, 0.25)),
}


@dataclass
class LabeledImage:
    pixels: np.ndarray  # (3, 32, 32) float32, channel-normalized
    label: int


class Dataset:
    def __init__(self, images: np.ndarray, labels: np.ndarray, classes: int):
        self.images = np.ascontiguousarray(images, dtype=np.float32)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        self.classes = classes

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i) -> LabeledImage:
        return LabeledImage(self.images[i], int(self.labels[i]))


def _normalize(raw01: np.ndarray, stats_key: str) -> np.ndarray:
    mean, std = DATASET_STATS[stats_key]
    mean = np.asarray(mean, dtype=np.float32).reshape(1, 3, 1, 1)
    std = np.asarray(std, dtype=np.float32).reshape(1, 3, 1, 1)
    return (raw01 - mean) / std


def load_cifar_binary(path, classes: int, stats_key: str | None = None) -> Dataset:
    """Decode a file of 3073-byte records: 1 label byte + 3072 RGB-plane bytes."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) % RECORD_BYTES != 0:
        offset = len(buf) - len(buf) % RECORD_BYTES
        raise FormatError(f"truncated record at byte offset {offset} in {path}")
    if not buf:
        raise FormatError(f"{path} is empty")
    rec = np.frombuffer(buf, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = rec[:, 0].astype(np.int64)
    if labels.max(initial=0) >= classes:
        raise FormatError(f"label {labels.max()} out of range for {classes} classes")
    raw = rec[:, 1:].reshape(-1, 3, IMAGE_HW, IMAGE_HW).astype(np.float32) / 255.0
    if stats_key is None:
        stats_key = "cifar100" if classes == 100 else "cifar10"
    return Dataset(_normalize(raw, stats_key), labels, classes)


def write_cifar_binary(path, raw_images: np.ndarray, labels: np.ndarray):
    """Encode (N, 3, 32, 32) uint8 images and labels in the binary layout."""
    n = len(labels)
    rec = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = np.asarray(labels, dtype=np.uint8)
    rec[:, 1:] = np.asarray(raw_images, dtype=np.uint8).reshape(n, -1)
    with open(path, "wb") as f:
        f.write(rec.tobytes())


def hflip(img: LabeledImage) -> LabeledImage:
    return LabeledImage(img.pixels[:, :, ::-1].copy(), img.label)


def reflect_crop(pixels: np.ndarray, top: int, left: int) -> np.ndarray:
    padded = np.pad(pixels, ((0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)), mode="reflect")
    return padded[:, top : top + IMAGE_HW, left : left + IMAGE_HW].copy()


def augment(img: LabeledImage, rng: np.random.Generator) -> LabeledImage:
    """Training-time flip + reflect-pad random crop; label unchanged."""
    out = hflip(img) if rng.random() < 0.5 else img
    top, left = rng.integers(0, 2 * CROP_PAD + 1, size=2)
    return LabeledImage(reflect_crop(out.pixels, int(top), int(left)), out.label)


def batches(dataset: Dataset, batch_size: int, seed: int, epoch: int, train: bool = True):
    """Epoch-seeded shuffled minibatches; the last partial batch is kept.

    The same (seed, epoch) always reproduces the same order and the same
    augmentation draws. Evaluation passes train=False to skip both the
    shuffle and the augmentation.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if len(dataset) == 0:
        raise ConfigError("dataset is empty")
    if train:
        rng = np.random.default_rng([int(seed), int(epoch)])
        order = rng.permutation(len(dataset))
    else:
        order = np.arange(len(dataset))
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        imgs = dataset.images[idx]
        if train:
            imgs = _augment_batch(imgs, rng)
        yield Tensor(imgs), dataset.labels[idx]


def _augment_batch(imgs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`augment` applied to each image of a batch, with the same draws in
    the same order, so the pixels are byte-identical to the per-image path."""
    flip = np.empty(len(imgs), dtype=bool)
    corners = np.empty((len(imgs), 2), dtype=np.int64)
    for k in range(len(imgs)):
        flip[k] = rng.random() < 0.5
        corners[k] = rng.integers(0, 2 * CROP_PAD + 1, size=2)
    imgs[flip] = imgs[flip, :, :, ::-1]
    padded = np.pad(imgs, ((0, 0), (0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)), mode="reflect")
    out = np.empty_like(imgs)
    for k, (top, left) in enumerate(corners):
        out[k] = padded[k, :, top : top + IMAGE_HW, left : left + IMAGE_HW]
    return out


def synthetic_dataset(n: int, classes: int, seed: int) -> Dataset:
    """Class-separable smooth blob images for deterministic desk-scale runs.

    Each class owns a fixed low-frequency template, mirrored so horizontal
    flips preserve the label; samples add moderate pixel noise. A linear
    probe on raw pixels separates the classes comfortably.
    """
    if n < classes:
        raise ConfigError(f"need at least one sample per class, got n={n} classes={classes}")
    rng = np.random.default_rng(seed)
    templates = []
    for _ in range(classes):
        low = rng.standard_normal((3, 4, 4))
        t = np.kron(low, np.ones((8, 8)))  # blocky 32x32 field
        t = 0.5 * (t + t[:, :, ::-1])  # flip-symmetric
        t /= np.abs(t).max() + 1e-9
        templates.append(t)
    labels = np.arange(n) % classes
    raw = np.empty((n, 3, IMAGE_HW, IMAGE_HW), dtype=np.float32)
    for i, c in enumerate(labels):
        noise = rng.standard_normal((3, IMAGE_HW, IMAGE_HW))
        raw[i] = np.clip(0.5 + 0.18 * templates[c] + 0.06 * noise, 0.0, 1.0)
    return Dataset(_normalize(raw, "synthetic"), labels, classes)
