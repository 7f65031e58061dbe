import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentpoison.attack import Perturbation
from latentpoison.checkpoint import (
    _FIELDS,
    CheckpointError,
    CheckpointHashError,
    load_checkpoint,
    save_checkpoint,
)
from latentpoison.models import ClassifierParams, VaeParams


def _artifact(kind):
    if kind == "vae":
        return VaeParams.initialize(16, 4, np.random.default_rng(0), hidden=(8, 6))
    if kind == "classifier":
        return ClassifierParams.initialize(16, np.random.default_rng(1), role="eval", hidden=(8,))
    rng = np.random.default_rng(2)
    return Perturbation(rng.standard_normal(4), 1, "additive", 0.01, "poisoning",
                        delta_reverse=rng.standard_normal(4))


@pytest.fixture
def vae():
    return _artifact("vae")


@pytest.fixture
def classifier():
    return _artifact("classifier")


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

    @pytest.mark.parametrize("kind", ["vae", "classifier"])
    def test_no_hidden_layer_loads(self, tmp_path, kind):
        rng = np.random.default_rng(3)
        network = (VaeParams.initialize(16, 4, rng, hidden=()) if kind == "vae"
                   else ClassifierParams.initialize(16, rng, role="eval", hidden=()))
        save_checkpoint(network, tmp_path / "net.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "net.ckpt", expect_kind=kind)
        assert loaded.hidden == ()
        assert _names_and_shapes(loaded) == _names_and_shapes(network)


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

    @pytest.mark.parametrize("field, value", [
        ("family", "x"),
        ("norm_order", 3),
        ("norm_order", True),
        ("reg_weight", -1),
        ("reg_weight", True),
        ("provenance", "backdoor"),
    ])
    def test_rejected_perturbation_field(self, tmp_path, perturbation, field, value):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        _rewrite_descriptor(path, lambda desc: desc.update({field: value}))
        with pytest.raises(CheckpointError, match=rf"dz\.ckpt.*{field}"):
            load_checkpoint(path)

    def test_multiplicative_with_a_reverse_vector(self, tmp_path):
        # a multiplicative perturbation has one vector; a second one would be dead weight
        path = tmp_path / "dz.ckpt"
        save_checkpoint(_artifact("perturbation"), path)
        _rewrite_descriptor(path, lambda desc: desc.update({"family": "multiplicative"}))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (f"{path}: per_direction needs the additive family: "
                                  "a multiplicative perturbation has one vector")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_reg_weight(self, tmp_path, perturbation, value):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        _rewrite_descriptor(path, lambda desc: desc.update({"reg_weight": value}))
        with pytest.raises(CheckpointError, match=r"dz\.ckpt.*reg_weight must be finite"):
            load_checkpoint(path)

    def test_layout_disagreeing_with_payload_is_not_truncation(self, tmp_path, classifier):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        path.write_bytes(path.read_bytes().replace(b'"hidden": [8]', b'"hidden": [4]'))
        with pytest.raises(CheckpointError, match=r"clf\.ckpt.*layout needs") as info:
            load_checkpoint(path)
        assert not re.search(r"expected \d+ bytes for", str(info.value))

    @pytest.mark.parametrize("kind, field", [
        ("vae", "image_dim"), ("vae", "latent_dim"), ("vae", "hidden"),
        ("classifier", "image_dim"), ("classifier", "hidden"), ("perturbation", "latent_dim"),
    ])
    @pytest.mark.parametrize("width", [0, -1])
    def test_width_below_one(self, tmp_path, kind, field, width):
        # a zero width loads a network or perturbation that fails far from the file
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(_artifact(kind), path)
        value = [8, width] if field == "hidden" else width
        _rewrite_descriptor(path, lambda desc: desc.update({field: value}))
        message = re.escape(f"{path}: descriptor field '{field}' holds a width below 1: {width}")
        with pytest.raises(CheckpointError, match=f"^{message}$"):
            load_checkpoint(path)

    def test_unknown_role(self, tmp_path, classifier):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        path.write_bytes(path.read_bytes().replace(b'"role": "eval"', b'"role": "atta"'))
        with pytest.raises(CheckpointError, match=r"clf\.ckpt.*'role'.*'atta'"):
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
        with pytest.raises(CheckpointError, match=r"expected \d+ bytes for"):
            load_checkpoint(path)

    @pytest.mark.parametrize("part", [
        "magic", "kind", "descriptor length", "descriptor", "payload length", "payload", "hash",
    ])
    @pytest.mark.parametrize("kept", ["none", "all but one"])
    def test_truncated_at_each_part(self, tmp_path, classifier, part, kept):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        blob = path.read_bytes()
        (desc_len,) = struct.unpack("<I", blob[5:9])
        (pay_len,) = struct.unpack("<Q", blob[9 + desc_len : 17 + desc_len])
        sizes = {"magic": 4, "kind": 1, "descriptor length": 4, "descriptor": desc_len,
                 "payload length": 8, "payload": pay_len, "hash": 8}
        names = list(sizes)
        start = sum(sizes[name] for name in names[: names.index(part)])
        assert start + sum(sizes[name] for name in names[names.index(part) :]) == len(blob)
        left = 0 if kept == "none" else sizes[part] - 1
        path.write_bytes(blob[: start + left])
        message = re.escape(f"{path}: expected {sizes[part]} bytes for {part}, got {left}")
        with pytest.raises(CheckpointError, match=f"^{message}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\x00", bytes(range(8))])
    def test_appended_bytes_detected(self, tmp_path, perturbation, extra):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CheckpointError, match=rf"dz\.ckpt: {len(extra)} bytes after the hash"):
            load_checkpoint(path)

    def test_unsupported_version_detected(self, tmp_path, perturbation):
        path = tmp_path / "dz.ckpt"
        save_checkpoint(perturbation, path)
        blob = bytearray(path.read_bytes())
        blob[3] = ord("2")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 2"):
            load_checkpoint(path)

    def test_foreign_file_detected(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_bytes(b"PNG\x89 definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_kind_mismatch(self, tmp_path, classifier):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(classifier, path)
        with pytest.raises(CheckpointError, match="holds a classifier, expected a vae"):
            load_checkpoint(path, expect_kind="vae")

    def test_unknown_artifact_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            save_checkpoint({"weights": 1}, tmp_path / "x.ckpt")


def _wrong_value(json_type):
    """A JSON value the descriptor field of this type must reject."""
    return 1 if json_type in (str, bool) else True


@pytest.mark.parametrize("kind, field", [(k, f) for k, fields in _FIELDS.items() for f in fields])
@pytest.mark.parametrize("edit", ["missing", "null", "mistyped"])
def test_every_descriptor_field_is_checked(tmp_path, kind, field, edit):
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(_artifact(kind), path)
    if edit == "missing":
        _rewrite_descriptor(path, lambda desc: desc.pop(field))
    else:
        value = None if edit == "null" else _wrong_value(_FIELDS[kind][field])
        _rewrite_descriptor(path, lambda desc: desc.update({field: value}))
    with pytest.raises(CheckpointError, match=rf"{kind}\.ckpt: descriptor .*'{field}'"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Each kind's checkpoint bytes, and a scratch path the fuzz tests overwrite."""
    out = tmp_path_factory.mktemp("fuzz")
    blobs = {}
    for kind in _FIELDS:
        save_checkpoint(_artifact(kind), out / "x.ckpt", config={"seed": 1})
        blobs[kind] = (out / "x.ckpt").read_bytes()
    return blobs, out / "x.ckpt"


def _load_or_reject(path):
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


KINDS = st.sampled_from(sorted(_FIELDS))
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.floats(),
    st.text(max_size=6), st.lists(st.integers(-2, 40), max_size=3),
    st.sampled_from(["attack", "eval", "additive", "multiplicative", "independent"]),
)


class TestFuzz:
    """Damaged checkpoints load or raise CheckpointError; no other exception escapes."""

    @given(KINDS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_flips(self, saved, kind, data):
        blobs, path = saved
        blob = bytearray(blobs[kind])
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(blob))
        _load_or_reject(path)

    @given(KINDS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncations(self, saved, kind, data):
        blobs, path = saved
        path.write_bytes(blobs[kind][: data.draw(st.integers(0, len(blobs[kind]) - 1))])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @given(KINDS, st.binary(min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_appended_bytes(self, saved, kind, extra):
        blobs, path = saved
        path.write_bytes(blobs[kind] + extra)
        with pytest.raises(CheckpointError, match="bytes after the hash"):
            load_checkpoint(path)

    @given(KINDS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_descriptor_edits(self, saved, kind, data):
        blobs, path = saved
        edits = data.draw(st.dictionaries(st.sampled_from(sorted(_FIELDS[kind])),
                                          st.one_of(st.just("missing"), JSON_VALUES),
                                          min_size=1))

        def edit(desc):
            for field, value in edits.items():
                if value == "missing":
                    desc.pop(field)
                else:
                    desc[field] = value

        path.write_bytes(blobs[kind])
        _rewrite_descriptor(path, edit)
        _load_or_reject(path)
