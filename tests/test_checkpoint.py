"""Binary parameter container round trips."""

import numpy as np
import pytest

from sparselab import checkpoint, layers, masks


def _model(seed=0):
    return layers.build_model({"preset": "mlp", "in_shape": [4], "hidden": [6, 6],
                               "classes": 2}, seed=seed)


class TestContainer:
    def test_round_trip_values_masks_stats(self, tmp_path):
        model = _model(seed=1)
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=2))
        path = tmp_path / "model.splb"
        checkpoint.save_model(str(path), model)

        other = _model(seed=99)
        checkpoint.load_into_model(str(path), other)
        for n, b in model.blocks.items():
            assert other.blocks[n].value.tobytes() == b.value.tobytes()
            if b.mask is not None:
                np.testing.assert_array_equal(other.blocks[n].mask, b.mask)
        assert path.read_bytes()[:5] == b"SPLB1"

    def test_mask_blocks_are_u8(self, tmp_path):
        model = _model(seed=3)
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=4))
        path = tmp_path / "m.splb"
        checkpoint.save_model(str(path), model)
        blocks = checkpoint.load_blocks(str(path))
        mask_names = [n for n in blocks if n.endswith(".mask")]
        assert mask_names
        for n in mask_names:
            assert set(np.unique(blocks[n])) <= {0.0, 1.0}

    def test_forward_identical_after_reload(self, tmp_path):
        model = _model(seed=5)
        path = tmp_path / "model.splb"
        checkpoint.save_model(str(path), model)
        other = _model(seed=6)
        checkpoint.load_into_model(str(path), other)
        x = np.random.default_rng(7).normal(size=(3, 4))
        assert (model.forward(x).logits.data.tobytes()
                == other.forward(x).logits.data.tobytes())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.splb"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(checkpoint.CheckpointError, match="magic"):
            checkpoint.load_blocks(str(path))

    def test_truncation_reports_offset(self, tmp_path):
        model = _model(seed=8)
        path = tmp_path / "model.splb"
        checkpoint.save_model(str(path), model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-11])
        with pytest.raises(checkpoint.CheckpointError, match="byte offset"):
            checkpoint.load_blocks(str(path))

    def test_scalar_and_empty_shapes(self, tmp_path):
        path = tmp_path / "odd.splb"
        checkpoint.save_blocks(str(path), {"s": np.float64(3.5), "v": np.zeros(0)})
        out = checkpoint.load_blocks(str(path))
        assert out["s"] == 3.5
        assert out["v"].size == 0


class TestStrictLoad:
    """Every malformed state raises CheckpointError naming the block."""

    def _saved(self, tmp_path, model, edit):
        state = model.state_dict()
        edit(state)
        path = tmp_path / "edited.splb"
        checkpoint.save_blocks(str(path), state)
        return str(path)

    def _masked(self):
        model = _model(seed=10)
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=11))
        return model

    def _rejects(self, path, model, match):
        before = {n: b.value.tobytes() for n, b in model.blocks.items()}
        with pytest.raises(checkpoint.CheckpointError, match=match):
            checkpoint.load_into_model(path, model)
        assert {n: b.value.tobytes() for n, b in model.blocks.items()} == before

    def test_missing_parameter_block(self, tmp_path):
        path = self._saved(tmp_path, _model(), lambda s: s.pop("L02.dense.w"))
        self._rejects(path, _model(seed=1), r"L02\.dense\.w")

    def test_missing_bn_statistics(self, tmp_path):
        spec = {"preset": "resnet-tiny", "in_shape": [1, 8, 8], "classes": 2,
                "channels": [2, 2, 2]}
        model = layers.build_model(spec, seed=0)
        bn = next(iter(model.bn_stats))
        path = self._saved(tmp_path, model, lambda s: s.pop(f"{bn}.rvar"))
        self._rejects(path, layers.build_model(spec, seed=1), f"{bn}.rvar")

    def test_unknown_name(self, tmp_path):
        path = self._saved(tmp_path, _model(),
                           lambda s: s.__setitem__("L09.dense.w", np.zeros(3)))
        self._rejects(path, _model(seed=1), r"L09\.dense\.w")

    def test_shape_mismatch(self, tmp_path):
        path = self._saved(tmp_path, _model(),
                           lambda s: s.__setitem__("L00.dense.w", s["L00.dense.w"].T))
        self._rejects(path, _model(seed=1), r"L00\.dense\.w.*shape")

    def test_non_binary_mask(self, tmp_path):
        def edit(s):
            s["L00.dense.w.mask"] = s["L00.dense.w.mask"] * 2.0
        path = self._saved(tmp_path, self._masked(), edit)
        self._rejects(path, _model(seed=1), r"L00\.dense\.w\.mask.*binary")

    def test_nonzero_value_under_mask(self, tmp_path):
        def edit(s):
            dead = s["L02.dense.w.mask"] == 0.0
            s["L02.dense.w"] = np.where(dead, 0.25, s["L02.dense.w"])
        path = self._saved(tmp_path, self._masked(), edit)
        self._rejects(path, _model(seed=1), r"L02\.dense\.w.*mask 0")
