"""Dataset loading, reduction, and splitting.

Three sources feed the experiments:

* the 569-row tabular diagnostic CSV (id, B/M label, 30 features),
* IDX image/label file pairs (the classic big-endian format with magics
  2051 and 2049), reduced from 28x28 to 4x4 by 7x7-block average pooling,
* a synthetic one-feature toy task y = sign(cos x) with a margin band
  removed.

Every feature that leaves this module lies in [0, 2pi]: tabular features
are min-max scaled per feature (statistics of whatever rows the loader
saw; ``rescale_with_train_stats`` re-anchors a split pair so the scaling
statistics come from the training split only), pixels are mapped by the
fixed scale [0, 255] -> [0, 2pi].  Labels are always in {-1, +1}.
Provenance digests (SHA-256 of the source bytes) ride along for result
files.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataFormatError",
    "Sample",
    "Dataset",
    "load_wdbc",
    "rescale_with_train_stats",
    "load_idx_pair",
    "subsample_split",
    "synthetic_toy",
    "write_idx_pair",
]

TWO_PI = 2.0 * np.pi
_TOY_MARGIN = 0.05


class DataFormatError(Exception):
    """The input file is not in the expected format."""


@dataclass(frozen=True)
class Sample:
    x: np.ndarray
    y: int


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m, D), finite and in [0, 2pi], with labels in {-1, +1}."""

    name: str
    features: np.ndarray
    labels: np.ndarray
    provenance: dict

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length does not match feature rows")
        if not np.isfinite(features).all():  # NaN passes the range test below
            raise ValueError("features must be finite")
        if features.size and (features.min() < -1e-12 or features.max() > TWO_PI + 1e-12):
            raise ValueError("features must lie in [0, 2pi]")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def sample(self, i: int) -> Sample:
        return Sample(self.features[i], int(self.labels[i]))

    def subset(self, indices, name: str | None = None) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            name if name is not None else self.name,
            self.features[indices].copy(),
            self.labels[indices].copy(),
            dict(self.provenance),
        )

    def replace(self, i: int, sample: Sample) -> "Dataset":
        """Copy of the dataset with row ``i`` swapped for ``sample``."""
        if not (0 <= i < len(self)):
            raise ValueError(f"index {i} out of range")
        features = self.features.copy()
        labels = self.labels.copy()
        features[i] = sample.x
        labels[i] = sample.y
        return Dataset(self.name, features, labels, dict(self.provenance))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _minmax_scale(features: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    span = high - low
    scaled = np.zeros_like(features)
    nonconst = span > 0
    scaled[:, nonconst] = (features[:, nonconst] - low[nonconst]) / span[nonconst] * TWO_PI
    return np.clip(scaled, 0.0, TWO_PI)


def load_wdbc(path: str) -> Dataset:
    """Load the diagnostic CSV: id, B/M label, 30 numeric features per row.

    B maps to +1, M to -1.  Features are min-max scaled per feature over
    the rows of the file and clamped to [0, 2pi].
    """
    rows = []
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 32:
                raise DataFormatError(
                    f"{path}: row {lineno} has {len(parts)} columns, expected 32"
                )
            tag = parts[1].strip()
            if tag == "B":
                labels.append(1)
            elif tag == "M":
                labels.append(-1)
            else:
                raise DataFormatError(
                    f"{path}: row {lineno} has unknown diagnosis {tag!r}"
                )
            try:
                rows.append([float(v) for v in parts[2:]])
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {lineno}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    raw = np.array(rows, dtype=float)
    if not np.isfinite(raw).all():  # float() reads "nan" and "inf"
        raise DataFormatError(f"{path}: non-finite feature value")
    scaled = _minmax_scale(raw, raw.min(axis=0), raw.max(axis=0))
    return Dataset(
        "wdbc",
        scaled,
        np.array(labels, dtype=np.int64),
        {"source": path, "sha256": _sha256(path)},
    )


def rescale_with_train_stats(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Min-max rescale both splits using statistics of the training split.

    Because min-max scaling is invariant under per-feature increasing
    affine maps, applying this after any earlier per-feature affine
    scaling yields exactly the train-statistics scaling of the raw data.
    Test values outside the training range clamp to [0, 2pi].
    """
    if train.feature_dim != test.feature_dim:
        raise ValueError("train and test feature dimensions differ")
    low = train.features.min(axis=0)
    high = train.features.max(axis=0)
    return (
        Dataset(train.name, _minmax_scale(train.features, low, high), train.labels,
                dict(train.provenance)),
        Dataset(test.name, _minmax_scale(test.features, low, high), test.labels,
                dict(test.provenance)),
    )


def _read_idx(path: str, ndim: int) -> np.ndarray:
    """A uint8 IDX array of ``ndim`` axes: a big-endian header of the magic
    0x0800 | ndim (2051 for images, 2049 for labels) and the ndim sizes,
    the count first, then the payload."""
    size = 4 * (ndim + 1)
    with open(path, "rb") as fh:
        header = fh.read(size)
        if len(header) < size:
            raise DataFormatError(f"{path}: truncated IDX header")
        magic, *shape = struct.unpack(f">{ndim + 1}I", header)
        if magic != 0x0800 | ndim:
            raise DataFormatError(f"{path}: bad IDX magic {magic}, expected {0x0800 | ndim}")
        body = fh.read()
    expected = math.prod(shape)
    if len(body) != expected:
        raise DataFormatError(
            f"{path}: payload holds {len(body)} bytes, expected {expected} for count {shape[0]}"
        )
    return np.frombuffer(body, dtype=np.uint8).reshape(shape)


def _write_idx(path: str, array: np.ndarray) -> None:
    """Write a uint8 array in the IDX format that `_read_idx` reads."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{array.ndim + 1}I", 0x0800 | array.ndim, *array.shape))
        fh.write(array.tobytes())


def load_idx_pair(images_path: str, labels_path: str, classes: tuple[int, int]) -> Dataset:
    """Load an IDX image/label pair, keep two classes, reduce to 16 features.

    28x28 images are average-pooled over 7x7 blocks down to 4x4 and the
    pixel means mapped [0, 255] -> [0, 2pi].  The first class in
    ``classes`` becomes label +1, the second -1.
    """
    a, b = int(classes[0]), int(classes[1])
    if a == b:
        raise ValueError("the two classes must differ")
    images = _read_idx(images_path, 3)
    labels = _read_idx(labels_path, 1)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image count {images.shape[0]} does not match label count {labels.shape[0]}"
        )
    if images.shape[1:] != (28, 28):
        raise DataFormatError(
            f"{images_path}: images are {images.shape[1]}x{images.shape[2]}, expected 28x28"
        )
    keep = np.isin(labels, (a, b))
    if not np.any(keep):
        raise DataFormatError(f"no samples with classes {a} or {b}")
    kept_labels = labels[keep]
    # Integer block sums (49 * 255 fits in uint16) are exact, so the means
    # are the bits of a float mean, without a float copy of every image.
    # Each band of 7 rows is summed first, over whole contiguous rows, then
    # each block of 7 columns of the band sums.
    bands = images[keep].reshape(-1, 4, 7, 28).sum(axis=2, dtype=np.uint16)
    sums = bands.reshape(-1, 4, 4, 7).sum(axis=3, dtype=np.uint16)
    features = (sums / 49).reshape(-1, 16) / 255.0 * TWO_PI
    signed = np.where(kept_labels == a, 1, -1).astype(np.int64)
    return Dataset(
        f"idx-{a}v{b}",
        features,
        signed,
        {
            "images": images_path,
            "images_sha256": _sha256(images_path),
            "labels": labels_path,
            "labels_sha256": _sha256(labels_path),
        },
    )


def subsample_split(dataset: Dataset, m_train: int, m_test: int, seed) -> tuple[Dataset, Dataset]:
    """Disjoint train/test subsets drawn by a seeded shuffle."""
    if m_train < 1:
        raise ValueError("m_train must be >= 1")
    if m_test < 0:
        raise ValueError("m_test must be >= 0")
    if m_train + m_test > len(dataset):
        raise ValueError(
            f"requested {m_train}+{m_test} samples from a pool of {len(dataset)}"
        )
    perm = np.random.default_rng(seed).permutation(len(dataset))
    return (
        dataset.subset(perm[:m_train], f"{dataset.name}-train"),
        dataset.subset(perm[m_train:m_train + m_test], f"{dataset.name}-test"),
    )


def synthetic_toy(m: int, seed: int) -> Dataset:
    """One-feature toy task: x uniform on [0, 2pi], y = sign(cos x).

    Samples with |cos x| < 0.05 are redrawn so the classes are separated
    by a margin band.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    xs = np.empty(m)
    filled = 0
    while filled < m:
        draw = rng.uniform(0.0, TWO_PI, size=m - filled)
        good = draw[np.abs(np.cos(draw)) >= _TOY_MARGIN]
        xs[filled:filled + good.shape[0]] = good
        filled += good.shape[0]
    labels = np.where(np.cos(xs) > 0.0, 1, -1).astype(np.int64)
    spec = f"toy(m={m}, seed={seed}, margin={_TOY_MARGIN})"
    return Dataset(
        "toy",
        xs[:, None],
        labels,
        {"generator": spec, "sha256": hashlib.sha256(spec.encode()).hexdigest()},
    )


def write_idx_pair(images: np.ndarray, labels: np.ndarray,
                   images_path: str, labels_path: str) -> None:
    """Write uint8 images (n, 28, 28) and labels (n,) in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3 or images.shape[1:] != (28, 28):
        raise ValueError("images must have shape (n, 28, 28)")
    if labels.shape != (images.shape[0],):
        raise ValueError("labels length does not match image count")
    _write_idx(images_path, images)
    _write_idx(labels_path, labels)
