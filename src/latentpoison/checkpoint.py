"""Versioned binary checkpoints for trained artifacts.

Layout, all integers little-endian:

    magic     4 bytes   b"LPZ" + ASCII format version digit (currently "1")
    kind      1 byte    1 = vae, 2 = classifier, 3 = perturbation
    desc_len  u32       length of the descriptor
    desc      bytes     UTF-8 JSON: architecture, metadata, config echo
    pay_len   u64       length of the payload in bytes
    payload   bytes     all parameters flattened, float64 little-endian
    hash      8 bytes   BLAKE2b-64 of the payload

Round trips are bitwise: the payload stores raw IEEE doubles in a fixed
parameter order and the hash is verified on every load.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .attack import Perturbation
from .models import INIT_SCHEME, ClassifierParams, VaeParams

MAGIC_PREFIX = b"LPZ"
FORMAT_VERSION = 1

_KIND_BYTES = {"vae": 1, "classifier": 2, "perturbation": 3}
_KIND_NAMES = {v: k for k, v in _KIND_BYTES.items()}


class CheckpointError(ValueError):
    """A checkpoint file cannot be used."""


class CheckpointVersionError(CheckpointError):
    """The file is not a checkpoint of a supported format version."""


class CheckpointTruncatedError(CheckpointError):
    """The file ends before a declared section."""


class CheckpointHashError(CheckpointError):
    """The payload does not match its stored hash."""


class CheckpointKindError(CheckpointError):
    """The checkpoint holds a different artifact kind than expected."""


def _payload_hash(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


def _flatten(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def _describe(artifact, config: dict | None) -> tuple[str, dict, bytes]:
    if isinstance(artifact, (VaeParams, ClassifierParams)):
        desc = {"image_dim": artifact.image_dim, "hidden": list(artifact.hidden), "init": INIT_SCHEME}
        if isinstance(artifact, VaeParams):
            desc |= {"kind": "vae", "latent_dim": artifact.latent_dim}
        else:
            desc |= {"kind": "classifier", "role": artifact.role}
        payload = _flatten(p.data for p in artifact.parameters())
    elif isinstance(artifact, Perturbation):
        desc = {
            "kind": "perturbation",
            "latent_dim": artifact.latent_dim,
            "norm_order": artifact.norm_order,
            "family": artifact.family,
            "reg_weight": artifact.reg_weight,
            "provenance": artifact.provenance,
            "per_direction": artifact.delta_reverse is not None,
        }
        vectors = [artifact.delta]
        if artifact.delta_reverse is not None:
            vectors.append(artifact.delta_reverse)
        payload = _flatten(vectors)
    else:
        raise TypeError(f"cannot checkpoint objects of type {type(artifact).__name__}")
    if config is not None:
        desc["config"] = config
    return desc["kind"], desc, payload


def save_checkpoint(artifact, path, config: dict | None = None) -> None:
    """Write an artifact; ``config`` is echoed into the descriptor."""
    kind, desc, payload = _describe(artifact, config)
    desc_bytes = json.dumps(desc, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC_PREFIX + str(FORMAT_VERSION).encode("ascii"))
        fh.write(struct.pack("<B", _KIND_BYTES[kind]))
        fh.write(struct.pack("<I", len(desc_bytes)))
        fh.write(desc_bytes)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        fh.write(_payload_hash(payload))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.blob):
            raise CheckpointTruncatedError(
                f"{self.path}: truncated while reading {what} "
                f"({len(self.blob) - self.offset} of {n} bytes left)"
            )
        chunk = self.blob[self.offset : self.offset + n]
        self.offset += n
        return chunk


def _split_payload(payload: bytes, shapes: list[tuple[int, ...]], path) -> list[np.ndarray]:
    expected = sum(int(np.prod(s)) for s in shapes) * 8
    if len(payload) != expected:
        raise CheckpointTruncatedError(
            f"{path}: payload holds {len(payload)} bytes, layout needs {expected}"
        )
    arrays, offset = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        arrays.append(
            np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += n * 8
    return arrays


def _field(desc: dict, name: str, kind, path):
    """A descriptor field, checked for presence and type; lists hold layer widths."""
    if name not in desc:
        raise CheckpointError(f"{path}: descriptor lacks field {name!r}")
    value = desc[name]
    if not isinstance(value, kind) or (kind is list and not all(isinstance(v, int) for v in value)):
        raise CheckpointError(f"{path}: descriptor field {name!r} has the wrong type: {value!r}")
    return value


def _rebuild_network(desc: dict, payload: bytes, path):
    image_dim = _field(desc, "image_dim", int, path)
    hidden = tuple(_field(desc, "hidden", list, path))
    if desc["kind"] == "vae":
        network, dims = VaeParams, (image_dim, _field(desc, "latent_dim", int, path), hidden)
        extra = ()
    else:
        network, dims = ClassifierParams, (image_dim, hidden)
        extra = (_field(desc, "role", str, path),)
    shapes = [
        shape
        for _, fan_in, fan_out in network.layout(*dims)
        for shape in ((fan_in, fan_out), (fan_out,))
    ]
    return network._from_arrays(_split_payload(payload, shapes, path), *dims, *extra)


def _rebuild_perturbation(desc: dict, payload: bytes, path) -> Perturbation:
    latent_dim = _field(desc, "latent_dim", int, path)
    per_direction = _field(desc, "per_direction", bool, path)
    arrays = _split_payload(payload, [(latent_dim,)] * (2 if per_direction else 1), path)
    return Perturbation(
        delta=arrays[0],
        norm_order=_field(desc, "norm_order", int, path),
        family=_field(desc, "family", str, path),
        reg_weight=_field(desc, "reg_weight", (int, float), path),
        provenance=_field(desc, "provenance", str, path),
        delta_reverse=arrays[1] if per_direction else None,
    )


def load_checkpoint(path, expect_kind: str | None = None):
    """Load an artifact, verifying version, structure, payload hash and kind.

    Returns the artifact and the config echo stored with it:
    ``(artifact, config_dict_or_None)``.
    """
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    magic = reader.take(4, "magic")
    if magic[:3] != MAGIC_PREFIX or not magic[3:4].isdigit():
        raise CheckpointVersionError(f"{path}: not a checkpoint file (magic {magic!r})")
    version = int(magic[3:4])
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, supported version is {FORMAT_VERSION}"
        )
    (kind_byte,) = struct.unpack("<B", reader.take(1, "kind"))
    if kind_byte not in _KIND_NAMES:
        raise CheckpointError(f"{path}: unknown artifact kind byte {kind_byte}")
    kind = _KIND_NAMES[kind_byte]
    (desc_len,) = struct.unpack("<I", reader.take(4, "descriptor length"))
    try:
        desc = json.loads(reader.take(desc_len, "descriptor").decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: descriptor is not valid JSON: {exc}") from exc
    if not isinstance(desc, dict):
        raise CheckpointError(f"{path}: descriptor is not a JSON object")
    if desc.get("kind") != kind:
        raise CheckpointError(
            f"{path}: descriptor kind {desc.get('kind')!r} disagrees with header {kind!r}"
        )
    (pay_len,) = struct.unpack("<Q", reader.take(8, "payload length"))
    payload = reader.take(pay_len, "payload")
    stored_hash = reader.take(8, "hash")
    if _payload_hash(payload) != stored_hash:
        raise CheckpointHashError(f"{path}: payload hash mismatch, file is corrupt")
    if expect_kind is not None and kind != expect_kind:
        raise CheckpointKindError(f"{path}: holds a {kind}, expected a {expect_kind}")
    rebuild = _rebuild_perturbation if kind == "perturbation" else _rebuild_network
    return rebuild(desc, payload, path), desc.get("config")
