"""The one way the tests edit a checkpoint's descriptor in place.

The payload and its hash stay as they are, so a load reaches the
descriptor checks instead of failing on the hash.
"""

import json
import struct


class RawJson(str):
    """A descriptor value written as this JSON text: json.dumps recurses per nesting
    level, so it cannot write an array 100,000 deep, as a hand-made file can."""


DEEP_ARRAY = RawJson("[" * 100_000 + "]" * 100_000)


def rewrite_descriptor(path, edit):
    """Apply ``edit`` to a checkpoint's descriptor dict, keeping the payload and its hash.

    The dict is written as ``json.dumps`` writes it, but a :class:`RawJson` value as its text.
    """
    blob = path.read_bytes()
    (desc_len,) = struct.unpack("<I", blob[5:9])
    desc = json.loads(blob[9 : 9 + desc_len])
    edit(desc)
    values = (value if isinstance(value, RawJson) else json.dumps(value) for value in desc.values())
    text = ", ".join(f"{json.dumps(key)}: {value}" for key, value in zip(desc, values))
    new = ("{" + text + "}").encode("utf-8")
    path.write_bytes(blob[:5] + struct.pack("<I", len(new)) + new + blob[9 + desc_len :])
