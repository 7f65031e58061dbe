import json
import struct

import numpy as np
import pytest

from latentpoison.attack import Perturbation
from latentpoison.checkpoint import (
    CheckpointError,
    CheckpointHashError,
    CheckpointKindError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from latentpoison.models import ClassifierParams, VaeParams


@pytest.fixture
def vae():
    return VaeParams.initialize(16, 4, np.random.default_rng(0), hidden=(8, 6))


@pytest.fixture
def classifier():
    return ClassifierParams.initialize(16, np.random.default_rng(1), role="eval", hidden=(8,))


@pytest.fixture
def perturbation():
    return Perturbation(
        np.random.default_rng(2).standard_normal(4), 1, "additive", 0.01, "poisoning"
    )


class TestRoundTrip:
    def test_vae_bitwise(self, tmp_path, vae):
        path = tmp_path / "vae.ckpt"
        save_checkpoint(vae, path, config={"seed": 3})
        loaded, config = load_checkpoint(path, expect_kind="vae")
        assert config == {"seed": 3}
        assert loaded.hidden == vae.hidden
        assert (loaded.latent_dim, loaded.image_dim) == (vae.latent_dim, vae.image_dim)
        for a, b in zip(loaded.parameters(), vae.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_classifier_bitwise(self, tmp_path, classifier):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        loaded, config = load_checkpoint(path, expect_kind="classifier")
        assert config is None
        assert loaded.role == "eval"
        for a, b in zip(loaded.parameters(), classifier.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_perturbation_bitwise(self, tmp_path, perturbation):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        loaded, _ = load_checkpoint(path, expect_kind="perturbation")
        assert np.array_equal(loaded.delta, perturbation.delta)
        assert loaded.norm_order == 1
        assert loaded.family == "additive"
        assert loaded.provenance == "poisoning"
        assert loaded.delta_reverse is None

    def test_perturbation_with_reverse_vector(self, tmp_path):
        pert = Perturbation(
            np.array([1.0, 2.0]), 2, "additive", 0.1, "independent",
            delta_reverse=np.array([-1.0, 0.5]),
        )
        path = tmp_path / "dz.ckpt"
        save_checkpoint(pert, path)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded.delta_reverse, pert.delta_reverse)

    def test_save_is_deterministic(self, tmp_path, vae):
        save_checkpoint(vae, tmp_path / "a.ckpt", config={"seed": 1})
        save_checkpoint(vae, tmp_path / "b.ckpt", config={"seed": 1})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_trained_vae_inference_identical_after_reload(self, tmp_path, tiny_vae, tiny_data):
        from latentpoison.models import encode

        path = tmp_path / "vae.ckpt"
        save_checkpoint(tiny_vae, path)
        loaded, _ = load_checkpoint(path)
        mu_a, _ = encode(tiny_data.images, tiny_vae)
        mu_b, _ = encode(tiny_data.images, loaded)
        assert np.array_equal(mu_a.data, mu_b.data)


def _names_and_shapes(params):
    return [(p.name, p.data.shape) for p in params.parameters()]


class TestRebuiltLayout:
    def test_vae_matches_fresh_initialization(self, tmp_path, vae):
        save_checkpoint(vae, tmp_path / "vae.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "vae.ckpt")
        assert _names_and_shapes(loaded) == _names_and_shapes(vae)
        assert [p.name for p in vae.parameters()][:2] == ["enc0.weight", "enc0.bias"]

    def test_classifier_matches_fresh_initialization(self, tmp_path, classifier):
        save_checkpoint(classifier, tmp_path / "clf.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "clf.ckpt")
        assert _names_and_shapes(loaded) == _names_and_shapes(classifier)


def _rewrite_descriptor(path, edit):
    """Apply ``edit`` to a checkpoint's descriptor dict, keeping the payload and its hash."""
    blob = path.read_bytes()
    (desc_len,) = struct.unpack("<I", blob[5:9])
    desc = json.loads(blob[9 : 9 + desc_len])
    edit(desc)
    new = json.dumps(desc).encode("utf-8")
    path.write_bytes(blob[:5] + struct.pack("<I", len(new)) + new + blob[9 + desc_len :])


class TestMalformedDescriptor:
    def test_renamed_field(self, tmp_path, classifier):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        path.write_bytes(path.read_bytes().replace(b'"hidden"', b'"hiddeN"'))
        with pytest.raises(CheckpointError, match=r"clf\.ckpt.*'hidden'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [("image_dim", "16"), ("hidden", 8), ("hidden", ["8"]), ("role", None)],
    )
    def test_wrong_classifier_field_type(self, tmp_path, classifier, field, value):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        _rewrite_descriptor(path, lambda desc: desc.update({field: value}))
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            load_checkpoint(path)

    def test_missing_vae_field(self, tmp_path, vae):
        path = tmp_path / "vae.ckpt"
        save_checkpoint(vae, path)
        _rewrite_descriptor(path, lambda desc: desc.pop("latent_dim"))
        with pytest.raises(CheckpointError, match="'latent_dim'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["norm_order", "family", "reg_weight", "provenance"])
    def test_missing_perturbation_field(self, tmp_path, perturbation, field):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        _rewrite_descriptor(path, lambda desc: desc.pop(field))
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            load_checkpoint(path)

    def test_descriptor_not_an_object(self, tmp_path, perturbation):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        blob = path.read_bytes()
        (desc_len,) = struct.unpack("<I", blob[5:9])
        path.write_bytes(blob[:9] + b"[" + b" " * (desc_len - 2) + b"]" + blob[9 + desc_len :])
        with pytest.raises(CheckpointError, match="descriptor"):
            load_checkpoint(path)


class TestCorruption:
    def test_flipped_payload_byte_detected(self, tmp_path, perturbation):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        blob = bytearray(path.read_bytes())
        blob[-12] ^= 0xFF  # inside the payload, before the 8-byte hash
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointHashError, match="hash"):
            load_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path, classifier):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_unsupported_version_detected(self, tmp_path, perturbation):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        blob = bytearray(path.read_bytes())
        blob[3] = ord("2")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="version 2"):
            load_checkpoint(path)

    def test_foreign_file_detected(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_bytes(b"PNG\x89 definitely not a checkpoint")
        with pytest.raises(CheckpointVersionError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_kind_mismatch(self, tmp_path, classifier):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        with pytest.raises(CheckpointKindError, match="holds a classifier, expected a vae"):
            load_checkpoint(path, expect_kind="vae")

    def test_unknown_artifact_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            save_checkpoint({"weights": 1}, tmp_path / "x.ckpt")
