"""Synthetic generators and the IDX loader."""

import re
import struct

import numpy as np
import pytest

from sparselab import datasets, layers, training


class TestSpirals:
    def test_deterministic(self):
        a = datasets.make_synthetic("spirals", 100, 2, noise=0.1, seed=3)
        b = datasets.make_synthetic("spirals", 100, 2, noise=0.1, seed=3)
        assert a.x_train.tobytes() == b.x_train.tobytes()
        assert a.y_train.tobytes() == b.y_train.tobytes()
        assert a.x_test.tobytes() == b.x_test.tobytes()

    def test_shapes_and_normalization(self):
        ds = datasets.make_synthetic("spirals", 120, 3, noise=0.05, seed=4)
        assert ds.x_train.shape == (120, 2)
        assert ds.n_classes == 3
        np.testing.assert_allclose(ds.x_train.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.x_train.std(axis=0), 1.0, atol=1e-12)

    def test_noiseless_spirals_fit_by_dense_mlp(self):
        """Separable by construction: a dense net reaches >= 99% train accuracy."""
        ds = datasets.make_synthetic("spirals", 200, 2, noise=0.0, seed=5)
        model = layers.build_model({"preset": "mlp", "in_shape": [2], "hidden": [32, 32],
                                    "classes": 2}, seed=5)
        cfg = training.TrainConfig(epochs=40, batch_size=32, lr0=0.1, milestones=(30,), seed=5)
        training.train(model, ds, cfg)
        _, acc = training.evaluate(model, ds.x_train, ds.y_train, 64)
        assert acc >= 0.99

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            datasets.make_synthetic("spirals", 15, 2)
        with pytest.raises(ValueError):
            datasets.make_synthetic("spirals", 100, 1)


class TestTeacher:
    def test_labels_reproduce_teacher_argmax(self):
        ds = datasets.make_synthetic("teacher", 80, 3, seed=6, input_shape=(5,))
        x_all = np.concatenate([ds.x_train, ds.x_test])
        # undo normalization to recover the raw teacher inputs
        raw = x_all * ds.norm_std + ds.norm_mean
        logits = datasets._teacher_logits(raw.reshape(len(raw), -1), ds.teacher_params)
        np.testing.assert_array_equal(logits.argmax(axis=1),
                                      np.concatenate([ds.y_train, ds.y_test]))

    def test_image_shaped_inputs(self):
        ds = datasets.make_synthetic("teacher", 60, 2, seed=7, input_shape=(1, 6, 6))
        assert ds.x_train.shape == (60, 1, 6, 6)
        assert ds.input_shape == (1, 6, 6)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            datasets.make_synthetic("blobs", 100, 2)


def _write_idx(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
               truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "t-images-idx3-ubyte"
    lab_path = tmp_path / "t-labels-idx1-ubyte"
    payload = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(payload)
    lab_path.write_bytes(struct.pack(">II", label_magic, n) + labels.tobytes())
    return img_path, lab_path


class TestIdxLoader:
    def test_header_decode_and_shapes(self, tmp_path):
        rng = np.random.default_rng(8)
        imgs = rng.integers(0, 256, size=(10, 28, 28))
        img, lab = _write_idx(tmp_path, imgs, rng.integers(0, 3, 10))
        ds = datasets.load_idx_images(str(img))
        total = len(ds.x_train) + len(ds.x_test)
        assert total == 10
        assert ds.x_train.shape[1:] == (1, 28, 28)
        assert ds.input_shape == (1, 28, 28)

    def test_pair_round_trips(self, tmp_path):
        """Images keep their (rows, cols) order under a channel axis, and
        labels come back as int64 in file order."""
        rng = np.random.default_rng(7)
        imgs, labels = rng.integers(0, 256, size=(12, 3, 5)), rng.integers(0, 4, 12)
        img, lab = _write_idx(tmp_path, imgs, labels)
        ds = datasets.load_idx_images(str(img), labels_path=str(lab))
        assert ds.x_train.shape == (10, 1, 3, 5) and ds.x_test.shape == (2, 1, 3, 5)
        assert ds.x_train.dtype == ds.x_test.dtype == np.float64
        assert ds.y_train.dtype == ds.y_test.dtype == np.int64
        np.testing.assert_array_equal(np.concatenate([ds.y_train, ds.y_test]), labels)
        x = np.concatenate([ds.x_train, ds.x_test])[:, 0] * ds.norm_std + ds.norm_mean
        np.testing.assert_allclose(x * 255.0, imgs, atol=1e-9)

    @pytest.mark.parametrize("which, edit, message", [
        ("images", lambda d: struct.pack(">I", 0x807) + d[4:],
         "bad image magic 0x00000807 at byte offset 0"),
        ("labels", lambda d: struct.pack(">I", 0x803) + d[4:],
         "bad label magic 0x00000803 at byte offset 0"),
        ("images", lambda d: d[:10], "truncated header at byte offset 4"),
        ("labels", lambda d: d[:6], "truncated header at byte offset 4"),
        ("images", lambda d: d[:-1], "truncated pixel payload at byte offset 16"),
        ("labels", lambda d: d[:-1], "truncated label payload at byte offset 8"),
    ], ids=["image-magic", "label-magic", "image-header", "label-header", "pixels", "labels"])
    def test_errors_name_the_file_and_offset(self, tmp_path, which, edit, message):
        rng = np.random.default_rng(13)
        img, lab = _write_idx(tmp_path, rng.integers(0, 256, (4, 3, 3)), rng.integers(0, 2, 4))
        path = img if which == "images" else lab
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(datasets.FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            datasets.load_idx_images(str(img))

    def test_limit_clamps_without_error(self, tmp_path):
        rng = np.random.default_rng(9)
        img, lab = _write_idx(tmp_path, rng.integers(0, 256, (6, 4, 4)), rng.integers(0, 2, 6))
        ds = datasets.load_idx_images(str(img), limit=100)
        assert len(ds.x_train) + len(ds.x_test) == 6

    @pytest.mark.parametrize("limit, match", [(-3, "limit must be >= 0, got -3"),
                                              (0, "need at least 2 examples, got 0"),
                                              (1, "need at least 2 examples, got 1")],
                             ids=["negative", "zero", "one"])
    def test_limit_below_two_rejected(self, tmp_path, limit, match):
        """A negative limit is an error, not a slice that drops examples
        from the end; 0 and 1 leave too few examples."""
        rng = np.random.default_rng(9)
        img, lab = _write_idx(tmp_path, rng.integers(0, 256, (12, 4, 4)), rng.integers(0, 2, 12))
        with pytest.raises(ValueError, match=match):
            datasets.load_idx_images(str(img), limit=limit)

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(10)
        img, lab = _write_idx(tmp_path, rng.integers(0, 256, (4, 3, 3)),
                              rng.integers(0, 2, 4), image_magic=0x807)
        with pytest.raises(datasets.FormatError, match="magic"):
            datasets.load_idx_images(str(img))

    def test_truncated_payload_reports_offset(self, tmp_path):
        rng = np.random.default_rng(11)
        img, lab = _write_idx(tmp_path, rng.integers(0, 256, (4, 3, 3)),
                              rng.integers(0, 2, 4), truncate_images=5)
        with pytest.raises(datasets.FormatError, match="byte offset"):
            datasets.load_idx_images(str(img))

    def test_normalization_uses_train_stats(self, tmp_path):
        rng = np.random.default_rng(12)
        img, lab = _write_idx(tmp_path, rng.integers(0, 256, (12, 4, 4)),
                              rng.integers(0, 2, 12))
        ds = datasets.load_idx_images(str(img))
        np.testing.assert_allclose(ds.x_train.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.x_train.std(), 1.0, atol=1e-12)
