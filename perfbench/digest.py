"""Golden digests of the scientific content of latentpoison outputs.

A digest maps a component name to a short list of numbers (or a
string). It is built from values read back through the package's own
readers — parameters through ``load_checkpoint``, confidence rows and
summary fields through ``parse_report`` — plus the perturbation dump and
the PGM pixels. Raw file bytes are never hashed, so a new checkpoint or
report encoding that carries the same results keeps the same digest.

Numbers are compared with a relative tolerance, so the last-bit
differences a different BLAS kernel can cause do not count as wrong
results, while any change in a learned value does.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from latentpoison import checkpoint, reporting

RTOL = 1e-6
ATOL = 1e-9

# Report metadata fields compared by the digest; config.* echo lines are
# not results and carry paths, so they are left out.
SUMMARY_FIELDS = (
    "mode",
    "family",
    "norm_order",
    "epsilon_plus",
    "epsilon_minus",
    "detection_probability_max",
    "sparsity_fraction",
)

_SAMPLES = 8


def array_digest(values) -> list[float]:
    """Size, mean, mean magnitude, RMS and evenly spaced samples of a flat array."""
    flat = np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in values])
    picks = flat[np.linspace(0, flat.size - 1, _SAMPLES).astype(int)]
    return [
        float(flat.size),
        float(flat.mean()),
        float(np.abs(flat).mean()),
        float(np.sqrt((flat**2).mean())),
        *map(float, picks),
    ]


def artifact_digest(artifact) -> list[float]:
    """Digest of a loaded checkpoint: network parameters or every perturbation element."""
    if hasattr(artifact, "parameters"):
        return array_digest(p.data for p in artifact.parameters())
    values = [float(v) for v in artifact.delta]
    if artifact.delta_reverse is not None:
        values += [float(v) for v in artifact.delta_reverse]
    return values


def report_digest(text: str) -> dict:
    """The six confidence rows and the summary fields, read back through ``parse_report``."""
    meta, rows = reporting.parse_report(text)
    out = {"rows": [v for row in rows for v in (row.mean, row.sd)]}
    out["row_names"] = ",".join(row.name for row in rows)
    for key in SUMMARY_FIELDS:
        value = meta[key]
        try:
            out[key] = [float(value)]
        except ValueError:
            out[key] = value
    return out


def delta_dump_digest(text: str) -> list[float]:
    """Every value and detection probability in a perturbation dump."""
    values = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("index"):
            continue
        _, value, probability = line.split(",")
        values += [float(value), float(probability)]
    return values


def pgm_digest(path: Path) -> list[float]:
    """Width, height and pixel statistics of a binary PGM image."""
    blob = path.read_bytes()
    magic, dims, maxval, pixels = blob.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = (int(v) for v in dims.split())
    image = np.frombuffer(pixels, dtype=np.uint8)
    if image.size != width * height:
        raise ValueError(f"{path}: {image.size} pixels, header says {width}x{height}")
    return [float(width), float(height), *array_digest([image])[1:]]


def plan_dir_digest(directory: Path) -> dict:
    """Digest of the checkpoints, report, perturbation dump and images of one plan.

    Other files are left out, so a later output (a training trace, say)
    does not fail the check; a missing output does.
    """
    out: dict = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".ckpt":
            artifact, _ = checkpoint.load_checkpoint(path)
            out[path.name] = artifact_digest(artifact)
        elif path.name == "report.csv":
            for key, value in report_digest(path.read_text(encoding="utf-8")).items():
                out[f"report.{key}"] = value
        elif path.name == "delta_elements.csv":
            out[path.name] = delta_dump_digest(path.read_text(encoding="utf-8"))
        elif path.suffix == ".pgm":
            out[path.name] = pgm_digest(path)
    return out


def mismatches(actual: dict, expected: dict) -> list[str]:
    """Names of the components where ``actual`` differs from ``expected``."""
    wrong = sorted(set(actual) ^ set(expected))
    for key in sorted(set(actual) & set(expected)):
        a, e = actual[key], expected[key]
        if isinstance(e, str) or isinstance(a, str):
            same = a == e
        else:
            same = len(a) == len(e) and bool(np.allclose(a, e, rtol=RTOL, atol=ATOL))
        if not same:
            wrong.append(key)
    return wrong
