"""Dataset construction: synthetic two-class images, IDX files, splits.

:class:`ByteReader` is the one bounded file reader and :func:`_write_file` the one writer.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeds import DATA, SPLIT, stream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """An IDX file does not parse as expected."""


@dataclass
class Dataset:
    """Labeled image vectors with values in [0, 1] and binary labels."""

    images: np.ndarray  # [n, width * height] float64
    labels: np.ndarray  # [n] int64 in {0, 1}
    width: int
    height: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"images {self.images.shape} and labels {self.labels.shape} disagree"
            )
        if self.images.shape[1] != self.width * self.height:
            raise ValueError(
                f"image width*height {self.width}x{self.height} does not match "
                f"vector length {self.images.shape[1]}"
            )
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_dim(self) -> int:
        return self.width * self.height

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def require_both_classes(self, who: str) -> None:
        """The one class-presence rule: ``who`` needs samples of label 0 and of label 1."""
        if len(self.class_indices(0)) == 0 or len(self.class_indices(1)) == 0:
            raise ValueError(f"{who} requires samples from both classes")


def _require_data_settings(count=None, width=None, height=None, test_count=None,
                           class_sizes=None) -> list[int] | None:
    """The rules of :func:`generate_synthetic` and of :func:`split`, and each class's test quota.

    A ``test_count`` is checked against ``class_sizes``, or, with ``count``,
    against the generator's classes, ``count // 2`` each.
    """
    if count is not None:
        if count <= 0 or count % 2 != 0:
            raise ValueError(f"count must be positive and even, got {count}")
        if width < 8 or height < 8:
            raise ValueError(f"width and height must be at least 8, got {width}x{height}")
        class_sizes = [count // 2] * 2
    if test_count is None:
        return None
    n = sum(class_sizes)
    if not 0 < test_count < n:
        raise ValueError(f"test_count must be in (0, {n}), got {test_count}")
    # largest remainder for two classes: round class 0's share, half up (ties go to class 0)
    quota0 = math.floor(test_count * class_sizes[0] / n + 0.5)
    quota = [quota0, test_count - quota0]
    for label, (size, part) in enumerate(zip(class_sizes, quota)):
        if not 0 < part < size:
            raise ValueError(f"cannot keep class {label} non-empty on both sides: "
                             f"{size} samples, test quota {part}")
    return quota


def feature_mask(width: int, height: int) -> np.ndarray:
    """Boolean [height, width] mask of the class-1 bar region.

    The bar sits in the lower third of the image and spans most of the
    width; the same geometry is used by the generator and by checks that
    ask where class information lives in pixel space.
    """
    row_start = (2 * height + 2) // 3
    bar_rows = max(1, round(height / 4))
    col_start = width // 8
    mask = np.zeros((height, width), dtype=bool)
    mask[row_start : min(row_start + bar_rows, height), col_start : width - col_start] = True
    return mask


def generate_synthetic(count: int, width: int, height: int, seed: int) -> Dataset:
    """Two-class grayscale images: a blob background, plus a bright bar for class 1.

    Half the samples carry the bar (label 1), half do not (label 0). Every
    sample gets its own jittered blob center, radius and amplitude, and
    additive Gaussian pixel noise of standard deviation 0.05; values are
    clamped to [0, 1]. The same (count, width, height, seed) always
    produces bitwise-identical data.
    """
    _require_data_settings(count, width, height)
    rng = stream(seed, DATA)
    mask = feature_mask(width, height)
    rows, cols = np.mgrid[0:height, 0:width].astype(np.float64)
    labels = np.arange(count, dtype=np.int64) % 2
    images = np.empty((count, width * height), dtype=np.float64)
    for i, label in enumerate(labels):
        # blob stays in the upper part so the bar region is dark for class 0
        center_r = height * (0.30 + rng.uniform(-0.05, 0.05))
        center_c = width * (0.50 + rng.uniform(-0.08, 0.08))
        radius = min(width, height) * (0.20 + rng.uniform(-0.03, 0.03))
        amplitude = 0.65 + rng.uniform(-0.10, 0.10)
        img = 0.05 + amplitude * np.exp(
            -((rows - center_r) ** 2 + (cols - center_c) ** 2) / (2.0 * radius**2)
        )
        if label == 1:
            img[mask] += 0.85 + rng.uniform(-0.05, 0.05)
        img += rng.normal(0.0, 0.05, size=(height, width))
        images[i] = np.clip(img, 0.0, 1.0).reshape(-1)
    return Dataset(images, labels, width, height)


class ByteReader:
    """A whole file read once, then taken part by part; IDX files and checkpoints share it.

    A declared size is never trusted: ``take(n, what)`` checks ``n`` against
    the bytes left before it slices, and ``last(n, what)`` also rejects any
    byte after the part. Both raise ``error``, each format's own class, with a
    message that names the file and the part.
    """

    def __init__(self, path, error: type[Exception]):
        self.path, self.error = Path(path), error
        self.blob, self.offset = self.path.read_bytes(), 0

    def take(self, n: int, what: str) -> bytes:
        left = len(self.blob) - self.offset
        if n > left:
            raise self.error(f"{self.path}: expected {n} bytes for {what}, got {left}")
        self.offset += n
        return self.blob[self.offset - n : self.offset]

    def last(self, n: int, what: str) -> bytes:
        part = self.take(n, what)
        extra = len(self.blob) - self.offset
        if extra:
            raise self.error(f"{self.path}: {extra} bytes after the {what}")
        return part


def _write_file(path, data: bytes | str) -> None:
    """Write ``data`` (text as UTF-8) whole to ``path``, making its missing directories.

    The bytes go to ``<name>.part`` beside ``path`` and are renamed onto it, so a
    failed or killed write never leaves part of a file under ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(path.name + ".part")
    try:
        part.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _read_idx(path, magic: int, ndim: int, what: str) -> tuple[tuple[int, ...], bytes]:
    """One IDX file's ``ndim`` header sizes and its payload, named ``what``, which ends the file."""
    reader = ByteReader(path, IdxFormatError)
    (found,) = struct.unpack(">I", reader.take(4, "magic"))
    if found != magic:
        raise IdxFormatError(f"{reader.path}: magic {found:#010x}, expected {magic:#010x}")
    sizes = struct.unpack(f">{ndim}I", reader.take(4 * ndim, "dimensions" if ndim > 1 else "count"))
    for name, size in zip(("count", "height", "width"), sizes):
        if size == 0:
            raise IdxFormatError(f"{reader.path}: {name} is 0, every IDX size must be positive")
    return sizes, reader.last(math.prod(sizes), what)


def load_idx(image_path, label_path, positive_labels) -> Dataset:
    """Load an IDX image/label file pair and binarize the labels.

    Raw label values in ``positive_labels`` map to 1, everything else to 0.
    Pixels are scaled to [0, 1] by division by 255.
    """
    positive = frozenset(int(v) for v in positive_labels)
    (count, height, width), pixels = _read_idx(image_path, IDX_IMAGE_MAGIC, 3, "pixels")
    (label_count,), raw_labels = _read_idx(label_path, IDX_LABEL_MAGIC, 1, "labels")
    if label_count != count:
        raise IdxFormatError(
            f"{Path(image_path)} holds {count} images but {Path(label_path)} holds "
            f"{label_count} labels"
        )
    images = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    labels = np.fromiter(
        (1 if b in positive else 0 for b in raw_labels), dtype=np.int64, count=count
    )
    return Dataset(images.reshape(count, height * width), labels, width, height)


def _write_idx(path, magic: int, array: np.ndarray) -> None:
    """An IDX file: ``magic``, one big-endian u32 per dimension of ``array``, its bytes."""
    _write_file(path, struct.pack(f">{1 + array.ndim}I", magic, *array.shape) + array.tobytes())


def save_idx(dataset: Dataset, image_path, label_path) -> None:
    """Write a dataset as an IDX image/label file pair (pixels quantized to bytes)."""
    pixels = np.rint(dataset.images * 255.0).astype(np.uint8)
    shape = (len(dataset), dataset.height, dataset.width)
    _write_idx(image_path, IDX_IMAGE_MAGIC, pixels.reshape(shape))
    _write_idx(label_path, IDX_LABEL_MAGIC, dataset.labels.astype(np.uint8))


def split(dataset: Dataset, test_count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded stratified split into disjoint train and test sets.

    Per-class test quotas follow the class ratio by largest remainder (class
    0's share, rounded half up), and both classes must stay non-empty on both sides.
    """
    class_idx = [dataset.class_indices(label) for label in (0, 1)]
    quota = _require_data_settings(test_count=test_count, class_sizes=list(map(len, class_idx)))
    rng = stream(seed, SPLIT)
    test_parts, train_parts = [], []
    for label, idx in enumerate(class_idx):
        perm = rng.permutation(idx)
        test_parts.append(perm[: quota[label]])
        train_parts.append(perm[quota[label] :])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.sort(np.concatenate(train_parts))

    def subset(idx: np.ndarray) -> Dataset:
        return Dataset(dataset.images[idx], dataset.labels[idx], dataset.width, dataset.height)

    return subset(train_idx), subset(test_idx)
