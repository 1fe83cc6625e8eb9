"""Dataset loaders, scaling, splitting, and the toy generator."""

import hashlib

import numpy as np
import pytest

from reupqnn.data import (
    DataFormatError,
    Dataset,
    Sample,
    load_idx_pair,
    load_wdbc,
    rescale_with_train_stats,
    subsample_split,
    synthetic_toy,
    write_idx_pair,
)

TWO_PI = 2 * np.pi


def wdbc_row(ident, tag, features):
    return ",".join([str(ident), tag] + [repr(float(v)) for v in features])


def write_wdbc(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


# --- wdbc ---------------------------------------------------------------------


def test_wdbc_three_row_hand_scaling(tmp_path):
    """Feature 0 spans 10..30, feature 1 is constant, the rest are zero."""
    f1 = [10.0] + [5.0] + [0.0] * 28
    f2 = [20.0] + [5.0] + [0.0] * 28
    f3 = [30.0] + [5.0] + [0.0] * 28
    path = write_wdbc(
        tmp_path / "wdbc.csv",
        [wdbc_row(1, "B", f1), wdbc_row(2, "M", f2), wdbc_row(3, "B", f3)],
    )
    ds = load_wdbc(path)
    assert len(ds) == 3
    assert ds.feature_dim == 30
    np.testing.assert_array_equal(ds.labels, [1, -1, 1])
    np.testing.assert_allclose(ds.features[:, 0], [0.0, np.pi, TWO_PI], atol=1e-12)
    # constant features collapse to zero instead of dividing by zero
    np.testing.assert_array_equal(ds.features[:, 1], [0.0, 0.0, 0.0])
    assert ds.provenance["sha256"] == hashlib.sha256(
        open(path, "rb").read()
    ).hexdigest()


def test_wdbc_rejects_bad_rows(tmp_path):
    path = write_wdbc(tmp_path / "short.csv", ["1,B,1.0,2.0"])
    with pytest.raises(DataFormatError, match="row 1"):
        load_wdbc(path)
    path = write_wdbc(
        tmp_path / "label.csv", [wdbc_row(1, "Q", [0.0] * 30)]
    )
    with pytest.raises(DataFormatError, match="diagnosis"):
        load_wdbc(path)
    bad = wdbc_row(1, "B", [0.0] * 30).replace("0.0", "abc", 1)
    path = write_wdbc(tmp_path / "num.csv", [bad])
    with pytest.raises(DataFormatError):
        load_wdbc(path)
    path = write_wdbc(tmp_path / "empty.csv", [""])
    with pytest.raises(DataFormatError, match="no data rows"):
        load_wdbc(path)


def test_wdbc_rejects_non_finite_values(tmp_path):
    """"nan" and "inf" parse as floats; the loader refuses them as a data error."""
    good = [wdbc_row(2, "M", [1.0] * 30)]
    for text in ("nan", "inf", "-inf"):
        bad = wdbc_row(1, "B", [0.0] * 30).replace("0.0", text, 1)
        path = write_wdbc(tmp_path / f"{text}.csv", [bad] + good)
        with pytest.raises(DataFormatError, match="non-finite"):
            load_wdbc(path)


def test_rescale_with_train_stats(tmp_path):
    rng = np.random.default_rng(81)
    features = rng.uniform(0, TWO_PI, (8, 2))
    train = Dataset("t", features[:5], np.ones(5, dtype=np.int64), {})
    test = Dataset("s", features[5:], np.ones(3, dtype=np.int64), {})
    new_train, new_test = rescale_with_train_stats(train, test)
    assert new_train.features.min(axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)
    assert new_train.features.max(axis=0) == pytest.approx([TWO_PI, TWO_PI], abs=1e-12)
    assert np.all(new_test.features >= 0.0)
    assert np.all(new_test.features <= TWO_PI)


# --- idx ----------------------------------------------------------------------


def test_idx_round_trip_and_pooling(tmp_path):
    # block (r, c) of the first image is filled with value 10 (4 r + c)
    img = np.zeros((28, 28), dtype=np.uint8)
    for br in range(4):
        for bc in range(4):
            img[br * 7 : (br + 1) * 7, bc * 7 : (bc + 1) * 7] = 10 * (4 * br + bc)
    images = np.stack([img, np.full((28, 28), 255, dtype=np.uint8)])
    labels = np.array([3, 8], dtype=np.uint8)
    ip = str(tmp_path / "images.idx")
    lp = str(tmp_path / "labels.idx")
    write_idx_pair(images, labels, ip, lp)

    ds = load_idx_pair(ip, lp, (3, 8))
    assert len(ds) == 2
    np.testing.assert_array_equal(ds.labels, [1, -1])
    want = np.array([10.0 * k for k in range(16)]) / 255.0 * TWO_PI
    np.testing.assert_allclose(ds.features[0], want, atol=1e-12)
    np.testing.assert_allclose(ds.features[1], np.full(16, TWO_PI), atol=1e-12)
    assert ds.provenance["images_sha256"] == hashlib.sha256(
        open(ip, "rb").read()
    ).hexdigest()


def test_idx_pooling_is_the_float_mean_as_bytes(tmp_path):
    """Block means taken from integer block sums are the bytes of the
    float mean of every 7x7 block, on all-0, all-255 and random images."""
    rng = np.random.default_rng(29)
    images = np.concatenate([np.zeros((1, 28, 28), np.uint8), np.full((1, 28, 28), 255, np.uint8),
                             rng.integers(0, 256, (30, 28, 28), dtype=np.uint8)])
    labels = np.arange(len(images), dtype=np.uint8) % 2
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_pair(images, labels, ip, lp)
    means = images.astype(float).reshape(-1, 4, 7, 4, 7).mean(axis=(2, 4))
    want = means.reshape(-1, 16) / 255.0 * TWO_PI
    got = load_idx_pair(ip, lp, (0, 1)).features
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_idx_class_filter_and_label_order(tmp_path):
    images = np.zeros((4, 28, 28), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1], dtype=np.uint8)
    ip = str(tmp_path / "i.idx")
    lp = str(tmp_path / "l.idx")
    write_idx_pair(images, labels, ip, lp)
    ds = load_idx_pair(ip, lp, (1, 0))
    np.testing.assert_array_equal(ds.labels, [-1, 1, 1])  # first class is +1


def test_idx_error_cases(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    labels = np.array([0, 1], dtype=np.uint8)
    ip = str(tmp_path / "i.idx")
    lp = str(tmp_path / "l.idx")
    write_idx_pair(images, labels, ip, lp)

    corrupted = bytearray(open(ip, "rb").read())
    corrupted[3] = 0x99  # wrong type byte in the magic
    bad_magic = tmp_path / "bad_magic.idx"
    bad_magic.write_bytes(bytes(corrupted))
    with pytest.raises(DataFormatError, match="magic"):
        load_idx_pair(str(bad_magic), lp, (0, 1))

    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(open(ip, "rb").read()[:-100])
    with pytest.raises(DataFormatError):
        load_idx_pair(str(truncated), lp, (0, 1))

    three = tmp_path / "l3.idx"
    write_idx_pair(
        np.zeros((3, 28, 28), dtype=np.uint8),
        np.array([0, 1, 0], dtype=np.uint8),
        str(tmp_path / "i3.idx"),
        str(three),
    )
    with pytest.raises(DataFormatError, match="count"):
        load_idx_pair(ip, str(three), (0, 1))

    good = open(lp, "rb").read()
    bad_label_magic = tmp_path / "bad_label_magic.idx"
    bad_label_magic.write_bytes(good[:3] + b"\x03" + good[4:])  # the image magic's ndim
    with pytest.raises(DataFormatError, match="magic"):
        load_idx_pair(ip, str(bad_label_magic), (0, 1))
    short_labels = tmp_path / "short_labels.idx"
    short_labels.write_bytes(good[:-1])
    with pytest.raises(DataFormatError, match="count 2"):
        load_idx_pair(ip, str(short_labels), (0, 1))

    with pytest.raises(DataFormatError, match="no samples"):
        load_idx_pair(ip, lp, (5, 6))
    with pytest.raises(ValueError):
        load_idx_pair(ip, lp, (1, 1))


def test_idx_rejects_non_28x28(tmp_path):
    import struct

    ip = tmp_path / "i14.idx"
    lp = tmp_path / "l14.idx"
    ip.write_bytes(struct.pack(">IIII", 2051, 2, 14, 14) + bytes(2 * 14 * 14))
    lp.write_bytes(struct.pack(">II", 2049, 2) + bytes([0, 1]))
    with pytest.raises(DataFormatError, match="28x28"):
        load_idx_pair(str(ip), str(lp), (0, 1))


# --- dataset container ----------------------------------------------------------


def test_dataset_validates_ranges():
    with pytest.raises(ValueError):
        Dataset("d", np.array([[7.0]]), np.array([1], dtype=np.int64), {})
    with pytest.raises(ValueError):
        Dataset("d", np.array([[1.0]]), np.array([2], dtype=np.int64), {})
    with pytest.raises(ValueError):
        Dataset("d", np.array([1.0]), np.array([1], dtype=np.int64), {})


def test_dataset_rejects_non_finite_features():
    """NaN fails every comparison, so the range test alone would let it in."""
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Dataset("t", [[bad], [1.0]], [1, -1], {})
    ds = Dataset("t", [[0.5], [1.0]], [1, -1], {})
    with pytest.raises(ValueError, match="finite"):
        ds.replace(0, Sample(np.array([np.nan]), 1))


def test_dataset_subset_and_replace():
    features = np.linspace(0, 6, 8)[:, None]
    labels = np.array([1, -1] * 4, dtype=np.int64)
    ds = Dataset("d", features, labels, {})
    sub = ds.subset([3, 1], "picked")
    np.testing.assert_array_equal(sub.features[:, 0], [features[3, 0], features[1, 0]])
    np.testing.assert_array_equal(sub.labels, [labels[3], labels[1]])
    swapped = ds.replace(0, Sample(np.array([2.5]), -1))
    assert swapped.features[0, 0] == 2.5
    assert swapped.labels[0] == -1
    assert ds.features[0, 0] == 0.0  # original untouched
    s = ds.sample(2)
    assert s.x[0] == features[2, 0] and s.y == labels[2]


# --- splitting -------------------------------------------------------------------


def test_subsample_split_disjoint_and_deterministic():
    pool = synthetic_toy(50, seed=3)
    tr1, te1 = subsample_split(pool, 20, 15, seed=42)
    tr2, te2 = subsample_split(pool, 20, 15, seed=42)
    assert len(tr1) == 20 and len(te1) == 15
    np.testing.assert_array_equal(tr1.features, tr2.features)
    np.testing.assert_array_equal(te1.features, te2.features)
    merged = np.concatenate([tr1.features[:, 0], te1.features[:, 0]])
    assert len(np.unique(merged)) == 35  # toy draws are almost surely distinct
    pool_values = set(pool.features[:, 0])
    assert all(v in pool_values for v in merged)
    tr3, _ = subsample_split(pool, 20, 15, seed=43)
    assert not np.array_equal(tr1.features, tr3.features)


def test_subsample_split_tuple_seed_and_limits():
    pool = synthetic_toy(10, seed=1)
    a, _ = subsample_split(pool, 4, 2, seed=(5, 7))
    b, _ = subsample_split(pool, 4, 2, seed=(5, 7))
    np.testing.assert_array_equal(a.features, b.features)
    with pytest.raises(ValueError):
        subsample_split(pool, 8, 5, seed=0)
    with pytest.raises(ValueError):
        subsample_split(pool, 0, 2, seed=0)


# --- toy generator ----------------------------------------------------------------


def test_synthetic_toy_margin_and_labels():
    ds = synthetic_toy(500, seed=11)
    cos = np.cos(ds.features[:, 0])
    assert np.min(np.abs(cos)) >= 0.05
    np.testing.assert_array_equal(ds.labels, np.where(cos > 0, 1, -1))
    assert np.all(ds.features >= 0) and np.all(ds.features <= TWO_PI)
    again = synthetic_toy(500, seed=11)
    np.testing.assert_array_equal(ds.features, again.features)
    assert ds.provenance["sha256"] == again.provenance["sha256"]
    other = synthetic_toy(500, seed=12)
    assert not np.array_equal(ds.features, other.features)
