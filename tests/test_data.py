import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentpoison import data as data_module
from latentpoison.attack import Perturbation
from latentpoison.checkpoint import load_checkpoint, save_checkpoint
from latentpoison.config import ConfigError
from latentpoison.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    ByteReader,
    Dataset,
    IdxFormatError,
    _write_file,
    feature_mask,
    generate_synthetic,
    load_idx,
    save_idx,
    split,
)
from latentpoison.evaluation import ROW_NAMES, AttackReport, ConfidenceRow
from latentpoison.models import VaeParams
from latentpoison.reporting import (delta_to_csv, grid_array, parse_report, render_grid,
                                    report_to_csv, write_artifacts, write_delta, write_pgm,
                                    write_report)


class TestGenerator:
    def test_two_samples_one_per_class(self):
        data = generate_synthetic(2, 8, 8, seed=0)
        assert sorted(data.labels.tolist()) == [0, 1]

    def test_same_seed_bitwise_identical(self):
        a = generate_synthetic(50, 10, 10, seed=3)
        b = generate_synthetic(50, 10, 10, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_synthetic(10, 8, 8, seed=1)
        b = generate_synthetic(10, 8, 8, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate_synthetic(7, 8, 8, seed=0)

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            generate_synthetic(4, 4, 8, seed=0)

    def test_pixels_in_unit_interval(self):
        data = generate_synthetic(100, 16, 16, seed=5)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0

    def test_bar_brightness_threshold_oracle(self):
        # classes must be separable by mean brightness of the bar region alone
        data = generate_synthetic(2000, 16, 16, seed=9)
        bar = feature_mask(16, 16).reshape(-1)
        brightness = data.images[:, bar].mean(axis=1)
        mean0 = brightness[data.labels == 0].mean()
        mean1 = brightness[data.labels == 1].mean()
        threshold = (mean0 + mean1) / 2
        predicted = (brightness > threshold).astype(int)
        assert (predicted == data.labels).mean() >= 0.99

    def test_mask_sits_in_lower_third(self):
        for width, height in ((8, 8), (16, 16), (20, 12)):
            mask = feature_mask(width, height)
            rows = np.flatnonzero(mask.any(axis=1))
            assert rows.min() >= (2 * height) // 3
            assert rows.max() < height


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            Dataset(np.zeros((3, 4)), np.zeros(2), 2, 2)

    def test_pixel_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(np.full((1, 4), 1.5), np.zeros(1), 2, 2)

    def test_binary_labels_enforced(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((1, 4)), np.array([3]), 2, 2)

    @pytest.mark.parametrize("labels", [[], [0, 0], [1]])
    def test_both_classes_required(self, labels):
        data = Dataset(np.zeros((len(labels), 4)), np.array(labels, dtype=np.int64), 2, 2)
        with pytest.raises(ValueError, match="^the caller requires samples from both classes$"):
            data.require_both_classes("the caller")

    def test_both_classes_present(self):
        Dataset(np.zeros((2, 4)), np.array([1, 0]), 2, 2).require_both_classes("the caller")


def _write_idx_pair(tmp_path, pixels, raw_labels, height, width,
                    image_magic=IDX_IMAGE_MAGIC, label_magic=IDX_LABEL_MAGIC,
                    truncate_images=0, label_count=None):
    image_path, label_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    blob = struct.pack(">IIII", image_magic, len(raw_labels), height, width)
    blob += bytes(pixels)
    if truncate_images:
        blob = blob[:-truncate_images]
    image_path.write_bytes(blob)
    count = len(raw_labels) if label_count is None else label_count
    label_path.write_bytes(struct.pack(">II", label_magic, count) + bytes(raw_labels[:count]))
    return image_path, label_path


class TestIdx:
    def test_fixture_file_shapes(self, tmp_path):
        pixels = list(range(4 * 9))  # 4 images of 3x3
        img, lbl = _write_idx_pair(tmp_path, pixels, [0, 1, 1, 0], 3, 3)
        data = load_idx(img, lbl, positive_labels={1})
        assert len(data) == 4
        assert data.images.shape == (4, 9)
        assert (data.width, data.height) == (3, 3)

    def test_positive_label_set_mapping(self, tmp_path):
        raw = list(range(10))  # raw labels 0..9
        img, lbl = _write_idx_pair(tmp_path, [0] * 10 * 64, raw, 8, 8)
        data = load_idx(img, lbl, positive_labels={3})
        np.testing.assert_array_equal(data.labels, (np.arange(10) == 3).astype(int))

    def test_byte_scaling_endpoints(self, tmp_path):
        img, lbl = _write_idx_pair(tmp_path, [0, 255, 128, 0], [1], 2, 2)
        data = load_idx(img, lbl, positive_labels={1})
        assert data.images[0, 0] == 0.0
        assert data.images[0, 1] == 1.0
        assert data.images[0, 2] == pytest.approx(128 / 255)

    def test_bad_image_magic(self, tmp_path):
        img, lbl = _write_idx_pair(tmp_path, [0] * 4, [1], 2, 2, image_magic=0xDEAD)
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(img, lbl, positive_labels={1})

    def test_bad_label_magic(self, tmp_path):
        img, lbl = _write_idx_pair(tmp_path, [0] * 4, [1], 2, 2, label_magic=0xBEEF)
        with pytest.raises(IdxFormatError, match="magic 0x0000beef"):
            load_idx(img, lbl, positive_labels={1})

    def test_truncated_pixels(self, tmp_path):
        img, lbl = _write_idx_pair(tmp_path, [0] * 4, [1], 2, 2, truncate_images=2)
        with pytest.raises(IdxFormatError, match="pixels"):
            load_idx(img, lbl, positive_labels={1})

    def test_header_sizes_checked_before_any_read(self, tmp_path):
        # declares 0xFFFFFFFF images of 0xFFFF x 0xFFFF pixels in a 16-byte file
        img, lbl = _write_idx_pair(tmp_path, [], [], 0, 0)
        img.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0xFFFFFFFF, 0xFFFF, 0xFFFF))
        with pytest.raises(IdxFormatError, match=r"img\.idx: expected \d+ bytes for pixels"):
            load_idx(img, lbl, positive_labels={1})

    @pytest.mark.parametrize("which, header, name", [
        ("img", (0, 2, 2), "count"),
        ("img", (1, 0, 2), "height"),
        ("img", (1, 2, 0), "width"),
        ("img", (1, 0, 0), "height"),
        ("lbl", (0,), "count"),
    ])
    def test_zero_size_rejected(self, tmp_path, which, header, name):
        # a zero size holds no dataset, and training on one fails far from the file
        img, lbl = _write_idx_pair(tmp_path, [7] * 4, [1], 2, 2)
        if which == "img":
            img.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, *header) + bytes(math.prod(header)))
            lbl.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, header[0]) + bytes(header[0]))
        else:
            lbl.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 0))
        path = img if which == "img" else lbl
        message = re.escape(f"{path}: {name} is 0, every IDX size must be positive")
        with pytest.raises(IdxFormatError, match=f"^{message}$"):
            load_idx(img, lbl, positive_labels={1})

    def test_count_mismatch(self, tmp_path):
        image_path = tmp_path / "img.idx"
        label_path = tmp_path / "lbl.idx"
        image_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2) + bytes(8))
        label_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 3) + bytes([0, 1, 0]))
        with pytest.raises(IdxFormatError, match="2 images.*3 labels"):
            load_idx(image_path, label_path, positive_labels={1})

    def test_save_load_round_trip_quantized(self, tmp_path):
        data = generate_synthetic(10, 8, 8, seed=4)
        save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")
        loaded = load_idx(tmp_path / "i.idx", tmp_path / "l.idx", positive_labels={1})
        np.testing.assert_array_equal(loaded.labels, data.labels)
        np.testing.assert_allclose(loaded.images, data.images, atol=0.5 / 255 + 1e-12)
        # a second save of the loaded data is byte-identical (fixed point)
        save_idx(loaded, tmp_path / "i2.idx", tmp_path / "l2.idx")
        assert (tmp_path / "i.idx").read_bytes() == (tmp_path / "i2.idx").read_bytes()

    def test_save_writes_the_hand_packed_bytes(self, tmp_path):
        # the writer against the format itself, not against the reader
        save_idx(generate_synthetic(20, 8, 8, seed=2), tmp_path / "i.idx", tmp_path / "l.idx")
        images, labels = _idx_pair_bytes(20)
        assert (tmp_path / "i.idx").read_bytes() == images
        assert (tmp_path / "l.idx").read_bytes() == labels

    def test_non_square_header_order(self, tmp_path):
        data = generate_synthetic(4, 12, 8, seed=0)
        save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")
        assert (tmp_path / "i.idx").read_bytes()[:16] == struct.pack(
            ">IIII", IDX_IMAGE_MAGIC, 4, 8, 12)
        loaded = load_idx(tmp_path / "i.idx", tmp_path / "l.idx", positive_labels={1})
        assert (loaded.width, loaded.height) == (12, 8)


class TestByteReader:
    """The one bounded reader: each format passes the exception class it raises."""

    class Bad(Exception):
        pass

    def _reader(self, tmp_path, blob):
        (tmp_path / "f.bin").write_bytes(blob)
        return ByteReader(tmp_path / "f.bin", self.Bad)

    def test_parts_in_order(self, tmp_path):
        reader = self._reader(tmp_path, b"abcdef")
        assert (reader.take(2, "head"), reader.take(0, "empty"), reader.last(4, "tail")) == (
            b"ab", b"", b"cdef")

    def test_short_part_names_file_part_and_bytes_left(self, tmp_path):
        reader = self._reader(tmp_path, b"abcdef")
        reader.take(4, "head")
        with pytest.raises(self.Bad, match=re.escape(f"{tmp_path / 'f.bin'}: expected 3 "
                                                       "bytes for body, got 2")):
            reader.take(3, "body")

    def test_bytes_after_the_last_part(self, tmp_path):
        with pytest.raises(self.Bad, match=re.escape(f"{tmp_path / 'f.bin'}: 2 bytes after the tail")):
            self._reader(tmp_path, b"abcdef").last(4, "tail")


class TestWriteFile:
    """The one writer: the whole file under ``<name>.part``, then renamed onto its name."""

    def test_text_is_written_as_utf8_without_newline_translation(self, tmp_path):
        _write_file(tmp_path / "t.csv", "a,\u00e9\r\nb\n")
        assert (tmp_path / "t.csv").read_bytes() == "a,\u00e9\r\nb\n".encode("utf-8")

    @staticmethod
    def _half_then_fail(error):
        def write_bytes(path, blob):
            with open(path, "wb") as fh:
                fh.write(blob[: len(blob) // 2])  # a write cut off halfway
            raise error
        return write_bytes

    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["new-file", "existing-file"])
    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["os-error", "interrupt"])
    @pytest.mark.parametrize("step", ["write", "rename"])
    def test_a_failed_write_leaves_the_old_file_or_none(self, tmp_path, monkeypatch, old, error,
                                                        step):
        path = tmp_path / "out" / "f.bin"
        if old is not None:
            path.parent.mkdir()
            path.write_bytes(old)
        if step == "write":
            monkeypatch.setattr(data_module.Path, "write_bytes", self._half_then_fail(error))
        else:
            def replace(src, dst):
                raise error
            monkeypatch.setattr(data_module.os, "replace", replace)
        with pytest.raises(type(error)):
            _write_file(path, b"new bytes, never whole on disk")
        monkeypatch.undo()
        assert [p.name for p in path.parent.iterdir()] == ([] if old is None else ["f.bin"])
        if old is not None:
            assert path.read_bytes() == old
        _write_file(path, b"new")  # the next write replaces the file whole
        assert path.read_bytes() == b"new"
        assert [p.name for p in path.parent.iterdir()] == ["f.bin"]


_IMAGES = [np.array([[0.0, 1.0, 0.5], [0.25, 0.75, 1.0]]),
           np.array([[1.0, 0.0, 0.2], [0.4, 0.6, 0.8]])]


def _pgm(image) -> bytes:
    pixels = np.rint(image * 255).astype(np.uint8).tobytes()
    return f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii") + pixels


def _report():
    rows = [ConfidenceRow(name, 0.5 + i / 10, 0.02) for i, name in enumerate(ROW_NAMES)]
    return AttackReport("independent", "additive", 2, rows, -0.1, 0.2, 0.01, 0.5,
                        config={"seed": 3})


def _perturbation():
    return Perturbation(np.array([0.5, -0.25, 3.0]), 1, "additive", 0.01, "independent")


def _vae():
    return VaeParams.initialize(16, 3, np.random.default_rng(0), hidden=(5,))


def _save_checkpoint(out):
    vae = _vae()
    save_checkpoint(vae, out / "vae.ckpt", config={"seed": 3})
    loaded, config = load_checkpoint(out / "vae.ckpt", expect_kind="vae")
    assert config == {"seed": 3}
    for a, b in zip(loaded.parameters(), vae.parameters(), strict=True):
        assert a.data.tobytes() == b.data.tobytes()
    return ["vae.ckpt"]


def _write_report(out):
    write_report(_report(), out / "report.csv")
    assert (out / "report.csv").read_bytes() == report_to_csv(_report()).encode()
    return ["report.csv"]


def _write_delta(out):
    write_delta(_perturbation(), out / "delta.csv")
    assert (out / "delta.csv").read_bytes() == delta_to_csv(_perturbation()).encode()
    return ["delta.csv"]


def _write_pgm(out):
    write_pgm(_IMAGES[0], out / "one.pgm")
    pixels = bytes([0, 255, 128, 64, 191, 255])  # rint of 255 times each value
    assert (out / "one.pgm").read_bytes() == b"P5\n3 2\n255\n" + pixels
    return ["one.pgm"]


def _render_grid(out):
    render_grid(_IMAGES, 2, out / "grid.pgm")
    assert (out / "grid.pgm").read_bytes() == _pgm(grid_array(_IMAGES, 2))
    return ["grid.pgm"]


def _save_idx(out):
    data = Dataset(np.stack([im.reshape(-1) for im in _IMAGES]), [1, 0], 3, 2)
    save_idx(data, out / "i.idx", out / "l.idx")
    pixels = np.rint(data.images * 255).astype(np.uint8).tobytes()
    assert (out / "i.idx").read_bytes() == struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 3) + pixels
    assert (out / "l.idx").read_bytes() == struct.pack(">II", IDX_LABEL_MAGIC, 2) + bytes([1, 0])
    return ["i.idx", "l.idx"]


def _write_artifacts(out):
    """One call writes each artifact as its own writer does, with the same echo."""
    echo = {"seed": 3}
    write_artifacts(out, {"vae.ckpt": _vae(), "perturbation.ckpt": _perturbation(),
                          "report.csv": dataclasses.replace(_report(), config={}),
                          "delta.csv": _perturbation(), "one.pgm": _IMAGES[0], "none.ckpt": None},
                    echo)
    own = out.parent
    save_checkpoint(_vae(), own / "vae.ckpt", config=echo)
    save_checkpoint(_perturbation(), own / "perturbation.ckpt", config=echo)
    for name in ("vae.ckpt", "perturbation.ckpt"):
        assert (out / name).read_bytes() == (own / name).read_bytes()
    assert (out / "report.csv").read_bytes() == report_to_csv(_report()).encode()
    assert parse_report((out / "report.csv").read_text())[0]["config.seed"] == "3"
    assert (out / "delta.csv").read_bytes() == delta_to_csv(_perturbation()).encode()
    assert (out / "one.pgm").read_bytes() == _pgm(_IMAGES[0])
    return ["vae.ckpt", "perturbation.ckpt", "report.csv", "delta.csv", "one.pgm"]


@pytest.mark.parametrize("write", [_save_checkpoint, _write_report, _write_delta, _write_pgm,
                                   _render_grid, _save_idx, _write_artifacts],
                         ids=lambda write: write.__name__.lstrip("_"))
def test_every_writer_makes_its_directories_and_writes_its_format(tmp_path, write):
    out = tmp_path / "new" / "nested"
    names = write(out)  # each writer checks its own file's bytes
    assert sorted(p.name for p in out.iterdir()) == sorted(names)  # and no .part is left


@pytest.mark.parametrize("echo, key", [
    ({"seed": "1\nzero_to_one,0.5,0.1"}, "seed"), ({"seed": "1 "}, "seed"),
    ({"seed": "\u2028"}, "seed"), ({"seed": [1]}, "seed"), ({"seed": None}, "seed"),
    ({"out dir": "x"}, "out dir"), ({1: "x"}, 1),
], ids=["line-break", "edge-space", "line-separator", "list", "none", "space-in-key", "int-key"])
def test_a_refused_echo_writes_nothing(tmp_path, echo, key):
    with pytest.raises(ConfigError, match=rf"^config key {re.escape(repr(key))}: "):
        write_artifacts(tmp_path, {"delta.csv": _perturbation(), "one.pgm": _IMAGES[0],
                                   "report.csv": _report()}, echo)
    assert list(tmp_path.iterdir()) == []


class TestSplit:
    def test_sizes(self):
        data = generate_synthetic(2000, 8, 8, seed=0)
        train, test = split(data, 100, seed=1)
        assert (len(train), len(test)) == (1900, 100)

    def test_same_seed_identical(self):
        data = generate_synthetic(100, 8, 8, seed=0)
        a_train, a_test = split(data, 20, seed=5)
        b_train, b_test = split(data, 20, seed=5)
        np.testing.assert_array_equal(a_train.images, b_train.images)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    @given(st.integers(2, 58), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_partition_law(self, test_count, seed):
        data = generate_synthetic(60, 8, 8, seed=17)
        train, test = split(data, test_count, seed=seed)
        assert len(train) + len(test) == len(data)
        combined = np.vstack([train.images, test.images])
        original = data.images[np.lexsort(data.images.T)]
        recombined = combined[np.lexsort(combined.T)]
        np.testing.assert_array_equal(original, recombined)

    def test_stratification_within_one_sample(self):
        data = generate_synthetic(200, 8, 8, seed=2)
        train, test = split(data, 50, seed=3)
        for side in (train, test):
            counts = [len(side.class_indices(label)) for label in (0, 1)]
            assert abs(counts[0] - counts[1]) <= 1

    def test_bounds_checked(self):
        data = generate_synthetic(10, 8, 8, seed=0)
        with pytest.raises(ValueError):
            split(data, 0, seed=0)
        with pytest.raises(ValueError):
            split(data, 10, seed=0)

    def test_impossible_stratification(self):
        base = generate_synthetic(12, 8, 8, seed=0)
        lopsided = Dataset(
            base.images, np.array([0] + [1] * 11), base.width, base.height
        )
        with pytest.raises(ValueError, match="non-empty"):
            split(lopsided, 6, seed=0)


    def test_closed_form_quota_is_the_largest_remainder_rule(self):
        # every split of up to 40 samples per class, against the general loop it replaced
        for n0 in range(41):
            for n1 in range(41):
                labels = np.array([0] * n0 + [1] * n1)
                data = Dataset(np.zeros((len(labels), 1)), labels, 1, 1)
                for test_count in range(1, len(labels)):
                    quota = _largest_remainder_quota(test_count, {0: n0, 1: n1})
                    if not all(0 < quota[c] < n for c, n in ((0, n0), (1, n1))):
                        with pytest.raises(ValueError, match="non-empty"):
                            split(data, test_count, seed=0)
                        continue
                    _, test = split(data, test_count, seed=0)
                    assert {c: len(test.class_indices(c)) for c in (0, 1)} == quota


def _largest_remainder_quota(test_count: int, class_counts: dict[int, int]) -> dict[int, int]:
    """The general largest-remainder loop ``split`` once ran: the reference for its closed form."""
    n = sum(class_counts.values())
    exact = {label: test_count * count / n for label, count in class_counts.items()}
    quota = {label: int(np.floor(v)) for label, v in exact.items()}
    leftover = test_count - sum(quota.values())
    for label, _ in sorted(exact.items(), key=lambda kv: kv[1] - int(np.floor(kv[1])), reverse=True):
        if leftover == 0:
            break
        quota[label] += 1
        leftover -= 1
    return quota


def _fuzz_pair(tmp_path_factory, image: bytes, labels: bytes):
    """Write an IDX pair to one reused scratch directory and return the two paths."""
    out = tmp_path_factory.getbasetemp() / "idx-fuzz"
    out.mkdir(exist_ok=True)
    (out / "img.idx").write_bytes(image)
    (out / "lbl.idx").write_bytes(labels)
    return out / "img.idx", out / "lbl.idx"


def _idx_pair_bytes(count: int = 20) -> tuple[bytes, bytes]:
    data = generate_synthetic(count, 8, 8, seed=2)
    pixels = np.rint(data.images * 255.0).astype(np.uint8).tobytes()
    return (
        struct.pack(">IIII", IDX_IMAGE_MAGIC, count, 8, 8) + pixels,
        struct.pack(">II", IDX_LABEL_MAGIC, count) + data.labels.astype(np.uint8).tobytes(),
    )


class TestIdxFuzz:
    """Edits and truncations of an IDX pair load or raise IdxFormatError; nothing else escapes."""

    PAIR = _idx_pair_bytes()
    HEADER_SIZES = (16, 8)

    @given(st.sampled_from([0, 1]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_byte_edits(self, tmp_path_factory, which, data):
        pair = list(self.PAIR)
        blob = bytearray(pair[which])
        for _ in range(data.draw(st.integers(1, 4))):
            # half the edits land in the header, where the sizes are declared
            end = data.draw(st.sampled_from([self.HEADER_SIZES[which], len(blob)]))
            blob[data.draw(st.integers(0, end - 1))] = data.draw(st.integers(0, 255))
        pair[which] = bytes(blob)
        try:
            load_idx(*_fuzz_pair(tmp_path_factory, *pair), positive_labels={1})
        except IdxFormatError:
            pass

    @given(st.sampled_from([0, 1]), st.binary(min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_appended_bytes(self, tmp_path_factory, which, tail):
        pair = list(self.PAIR)
        pair[which] += tail
        paths = _fuzz_pair(tmp_path_factory, *pair)
        with pytest.raises(IdxFormatError, match=re.escape(f"{paths[which]}: {len(tail)} bytes")):
            load_idx(*paths, positive_labels={1})

    @pytest.mark.parametrize("image_extra, label_extra", [(7, 3), (7, 0), (0, 3), (0, 0)])
    def test_appended_bytes_of_a_split(self, tmp_path, image_extra, label_extra):
        data = generate_synthetic(40, 8, 8, seed=2)
        img, lbl = tmp_path / "test-images.idx", tmp_path / "test-labels.idx"
        save_idx(data, img, lbl)
        img.write_bytes(img.read_bytes() + bytes(image_extra))
        lbl.write_bytes(lbl.read_bytes() + bytes(label_extra))
        if image_extra or label_extra:
            # the image file is read first, so it is the one named when both have extra bytes
            path, extra, what = (img, image_extra, "pixels") if image_extra else (
                lbl, label_extra, "labels")
            message = re.escape(f"{path}: {extra} bytes after the {what}")
            with pytest.raises(IdxFormatError, match=message):
                load_idx(img, lbl, positive_labels={1})
        else:
            assert len(load_idx(img, lbl, positive_labels={1})) == 40

    @given(st.sampled_from([0, 1]), st.integers(0, len(PAIR[0]) - 1))
    @settings(max_examples=60, deadline=None)
    def test_truncations(self, tmp_path_factory, which, length):
        pair = list(self.PAIR)
        pair[which] = pair[which][: min(length, len(pair[which]) - 1)]
        with pytest.raises(IdxFormatError):
            load_idx(*_fuzz_pair(tmp_path_factory, *pair), positive_labels={1})
