"""Versioned binary checkpoints for trained artifacts.

Layout, all integers little-endian:

    magic     4 bytes   b"LPZ" + ASCII format version digit (currently "1")
    kind      1 byte    1 = vae, 2 = classifier, 3 = perturbation
    desc_len  u32       length of the descriptor
    desc      bytes     UTF-8 JSON: architecture, metadata, config echo
    pay_len   u64       length of the payload in bytes
    payload   bytes     all parameters flattened, float64 little-endian
    hash      8 bytes   BLAKE2b-64 of the payload; nothing follows it

Round trips are bitwise: the payload stores raw IEEE doubles in a fixed
parameter order and the hash is verified on every load.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .attack import VECTOR_NAMES, Perturbation
from .config import ConfigError, require_echo
from .data import ByteReader, _write_file
from .models import INIT_SCHEME, ClassifierParams, VaeParams, _require_bound

MAGIC_PREFIX = b"LPZ"
FORMAT_VERSION = 1

_KIND_BYTES = {"vae": 1, "classifier": 2, "perturbation": 3}
_KIND_NAMES = {v: k for k, v in _KIND_BYTES.items()}
_KIND_OF = {VaeParams: "vae", ClassifierParams: "classifier", Perturbation: "perturbation"}

# Per kind, the descriptor fields besides kind, init and config, with the JSON
# type each must have; a network's fields are its _from_arrays keyword arguments.
_FIELDS = {
    "vae": {"image_dim": int, "latent_dim": int, "hidden": list},
    "classifier": {"image_dim": int, "hidden": list, "role": str},
    "perturbation": {
        "latent_dim": int,
        "per_direction": bool,
        "norm_order": int,
        "family": str,
        "reg_weight": (int, float),
        "provenance": str,
    },
}


class CheckpointError(ValueError):
    """A checkpoint file cannot be used."""


class CheckpointHashError(CheckpointError):
    """The payload does not match its stored hash."""


def _payload_hash(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


def _flatten(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def _describe(artifact, config: dict | None) -> tuple[str, dict, bytes]:
    kind = _KIND_OF.get(type(artifact))
    if kind is None:
        raise TypeError(f"cannot checkpoint objects of type {type(artifact).__name__}")
    if kind == "perturbation":
        desc = {"per_direction": len(artifact.vectors) == 2}
        payload = _flatten(artifact.vectors)
    else:
        desc = {"init": INIT_SCHEME}
        payload = _flatten(p.data for p in artifact.parameters())
    desc |= {name: getattr(artifact, name) for name in _FIELDS[kind] if name not in desc}
    desc["kind"] = kind
    if config is not None:
        desc["config"] = config
    return kind, desc, payload


def save_checkpoint(artifact, path, config: dict | None = None) -> None:
    """Write an artifact; ``config`` is echoed into the descriptor."""
    kind, desc, payload = _describe(artifact, config)
    desc_bytes = json.dumps(desc, sort_keys=True).encode("utf-8")
    _write_file(path, b"".join([MAGIC_PREFIX + str(FORMAT_VERSION).encode("ascii"),
                                struct.pack("<BI", _KIND_BYTES[kind], len(desc_bytes)), desc_bytes,
                                struct.pack("<Q", len(payload)), payload, _payload_hash(payload)]))


def _split_payload(payload: bytes, shapes: list[tuple[int, ...]], path) -> list[np.ndarray]:
    sizes = [math.prod(s) for s in shapes]
    if len(payload) != sum(sizes) * 8:
        raise CheckpointError(
            f"{path}: payload holds {len(payload)} bytes, layout needs {sum(sizes) * 8}"
        )
    # a view, copied per array: one copy of the whole payload raised peak memory by ~2 MB
    flat = np.frombuffer(payload, dtype="<f8")
    return [part.reshape(shape).astype(np.float64)
            for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]


def _field(desc: dict, name: str, kind, path):
    """A descriptor field, checked for presence and type; lists hold layer widths.

    JSON ``true`` and ``false`` are not numbers here, though Python's bool is an int.
    """
    if name not in desc:
        raise CheckpointError(f"{path}: descriptor lacks field {name!r}")
    value = desc[name]
    if (
        not isinstance(value, kind)
        or (isinstance(value, bool) and kind is not bool)
        or (kind is list and not all(type(v) is int for v in value))
    ):
        raise CheckpointError(f"{path}: descriptor field {name!r} has the wrong type: {value!r}")
    return value


def _rebuild(kind: str, desc: dict, payload: bytes, path):
    """The artifact a descriptor and payload hold, built by its own layout and constructor.

    Every field is read as ``_FIELDS`` lists it; a rule of the artifact rejects it
    in the artifact's words, after the file's name.
    """
    values = {name: _field(desc, name, json_type, path) for name, json_type in _FIELDS[kind].items()}
    try:
        if kind == "perturbation":
            count, width = (2 if values.pop("per_direction") else 1), values.pop("latent_dim")
            _require_bound("at least 1", latent_dim=width)  # before the payload is split
            arrays = _split_payload(payload, [(width,)] * count, path)
            return Perturbation(**dict(zip(VECTOR_NAMES, arrays)), **values)
        network = VaeParams if kind == "vae" else ClassifierParams
        dims = {name: value for name, value in values.items() if name != "role"}
        shapes = [shape for _, fan_in, fan_out in network.layout(**dims)
                  for shape in ((fan_in, fan_out), (fan_out,))]
        return network._from_arrays(_split_payload(payload, shapes, path), **values)
    except CheckpointError:
        raise
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def load_checkpoint(path, expect_kind: str | None = None):
    """Load an artifact, verifying version, structure, payload hash and kind.

    Returns the artifact and the config echo stored with it, which must keep
    :func:`~latentpoison.config.require_echo`'s rule: ``(artifact, config_dict_or_None)``.
    """
    reader = ByteReader(path, CheckpointError)
    path = reader.path
    magic = reader.take(4, "magic")
    if magic[:3] != MAGIC_PREFIX or not magic[3:4].isdigit():
        raise CheckpointError(f"{path}: not a checkpoint file (magic {magic!r})")
    version = int(magic[3:4])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, supported version is {FORMAT_VERSION}"
        )
    (kind_byte,) = struct.unpack("<B", reader.take(1, "kind"))
    if kind_byte not in _KIND_NAMES:
        raise CheckpointError(f"{path}: unknown artifact kind byte {kind_byte}")
    kind = _KIND_NAMES[kind_byte]
    (desc_len,) = struct.unpack("<I", reader.take(4, "descriptor length"))
    desc_bytes = reader.take(desc_len, "descriptor")  # a short file is truncated, not bad JSON
    try:
        desc = json.loads(desc_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
        raise CheckpointError(f"{path}: descriptor is not valid JSON: {exc}") from exc
    if not isinstance(desc, dict):
        raise CheckpointError(f"{path}: descriptor is not a JSON object")
    if desc.get("kind") != kind:
        raise CheckpointError(
            f"{path}: descriptor kind {desc.get('kind')!r} disagrees with header {kind!r}"
        )
    (pay_len,) = struct.unpack("<Q", reader.take(8, "payload length"))
    payload = reader.take(pay_len, "payload")
    stored_hash = reader.last(8, "hash")
    if _payload_hash(payload) != stored_hash:
        raise CheckpointHashError(f"{path}: payload hash mismatch, file is corrupt")
    if expect_kind is not None and kind != expect_kind:
        raise CheckpointError(f"{path}: holds a {kind}, expected a {expect_kind}")
    config = _field(desc, "config", dict, path) if "config" in desc else None
    try:
        require_echo(config or {})
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return _rebuild(kind, desc, payload, path), config
