"""Report files, image grids, and the one writer of every command's artifacts.

Reports are CSV tables preceded by a ``#``-commented metadata block, so
they read equally well in a terminal and in a spreadsheet or script.
Floats are written with ``repr`` (shortest exact form), which keeps files
byte-identical across reruns of the same seeded experiment. Images are
binary PGM (P5), chosen because it is trivially byte-exact to verify;
``magick in.pgm out.png`` or Pillow convert it anywhere.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .evaluation import (
    PRIOR_INTERVAL_HALFWIDTH,
    SPARSITY_THRESHOLD_RATIO,
    AttackReport,
    ConfidenceRow,
    detection_probability,
)
from .attack import Perturbation
from .checkpoint import save_checkpoint
from .config import require_echo
from .data import _write_file

REPORT_HEADER = "latentpoison attack report v1"
DELTA_HEADER = "latentpoison perturbation dump v1"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_csv(report: AttackReport) -> str:
    lines = [f"# {REPORT_HEADER}"]
    meta = {
        "mode": report.mode,
        "family": report.family,
        "norm_order": report.norm_order,
        "epsilon_plus": report.epsilon_plus,
        "epsilon_minus": report.epsilon_minus,
        "detection_probability_max": report.detection_max,
        "sparsity_fraction": report.sparsity_fraction,
        "sparsity_threshold_ratio": SPARSITY_THRESHOLD_RATIO,
        "prior_interval_halfwidth": PRIOR_INTERVAL_HALFWIDTH,
    }
    for key, value in meta.items():
        lines.append(f"# {key} = {_fmt(value)}")
    for key in sorted(report.config):
        lines.append(f"# config.{key} = {_fmt(report.config[key])}")
    lines.append("group,mean,sd")
    for row in report.rows:
        lines.append(f"{row.name},{_fmt(row.mean)},{_fmt(row.sd)}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> tuple[dict, list[ConfidenceRow]]:
    """Inverse of :func:`report_to_csv`, for tooling and round-trip tests."""
    meta: dict = {}
    rows: list[ConfidenceRow] = []
    saw_table_header = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if not saw_table_header:
            saw_table_header = True
            continue
        name, mean, sd = line.split(",")
        rows.append(ConfidenceRow(name, float(mean), float(sd)))
    return meta, rows


def write_report(report: AttackReport, path) -> None:
    _write_file(path, report_to_csv(report))


def delta_to_csv(perturbation: Perturbation) -> str:
    """Per-element dump of the perturbation with each element's detectability.

    A per-direction dump says so in its header, and the 1-to-0 vector's
    elements follow the shared one's, numbered on from ``latent_dim``.
    """
    lines = [
        f"# {DELTA_HEADER}",
        f"# provenance = {perturbation.provenance}",
        f"# family = {perturbation.family}",
        f"# norm_order = {perturbation.norm_order}",
        f"# reg_weight = {_fmt(perturbation.reg_weight)}",
        *(["# per_direction = True"] if len(perturbation.vectors) > 1 else []),
        "index,value,detection_probability",
    ]
    for i, value in enumerate(np.concatenate(perturbation.vectors)):
        lines.append(f"{i},{_fmt(float(value))},{_fmt(detection_probability(float(value)))}")
    return "\n".join(lines) + "\n"


def write_delta(perturbation: Perturbation, path) -> None:
    _write_file(path, delta_to_csv(perturbation))


def _quantize(image: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_pgm(image: np.ndarray, path) -> None:
    """Write one grayscale image in [0, 1] as binary PGM (P5)."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"PGM needs a 2-D image, got shape {image.shape}")
    height, width = image.shape
    _write_file(path, f"P5\n{width} {height}\n255\n".encode("ascii") + _quantize(image).tobytes())


def grid_array(images, columns: int) -> np.ndarray:
    """Tile same-sized images row-major with black 1-pixel separators and border."""
    if columns < 1:
        raise ValueError(f"columns must be at least 1, got {columns}")
    images = [np.asarray(im) for im in images]
    if not images:
        raise ValueError("need at least one image")
    height, width = images[0].shape
    for im in images:
        if im.shape != (height, width):
            raise ValueError(f"image dimensions differ: {im.shape} vs {(height, width)}")
    rows = -(-len(images) // columns)
    grid = np.zeros((rows * height + rows + 1, columns * width + columns + 1))
    for i, im in enumerate(images):
        r, c = divmod(i, columns)
        top = 1 + r * (height + 1)
        left = 1 + c * (width + 1)
        grid[top : top + height, left : left + width] = im
    return grid


def render_grid(images, columns: int, path) -> None:
    """Write a PGM grid of images; all must share dimensions."""
    write_pgm(grid_array(images, columns), path)


def write_artifacts(out_dir, files: dict, echo: dict) -> None:
    """Write each artifact of ``files`` to ``out_dir`` under its name, in order, with ``echo``.

    A report takes ``echo`` as its config block, a perturbation under a ``.csv`` name is
    dumped by element, a 2-D array is a PGM, any other artifact a checkpoint with ``echo``
    as its config, and None writes nothing. A rejected ``echo`` writes no file.
    """
    require_echo(echo)
    for name, artifact in files.items():
        path = Path(out_dir) / name
        if isinstance(artifact, AttackReport):
            write_report(dataclasses.replace(artifact, config=echo), path)
        elif isinstance(artifact, Perturbation) and path.suffix == ".csv":
            write_delta(artifact, path)
        elif isinstance(artifact, np.ndarray):
            write_pgm(artifact, path)
        elif artifact is not None:
            save_checkpoint(artifact, path, config=echo)
