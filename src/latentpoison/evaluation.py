"""Attack quality metrics: confidence tables, gap scores, detectability.

All evaluation encodes with the mean head only (no latent sampling), so a
report is a pure function of the trained artifacts and the test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attack import DIRECTIONS, Perturbation, tamper
from .data import Dataset
from .models import (
    ClassifierParams,
    VaeParams,
    _require_role,
    _require_same_widths,
    classify,
    decode,
    encode_mean,
)

# Half-width of the central interval covering 99.5% of a unit Gaussian.
PRIOR_INTERVAL_HALFWIDTH = 2.807

# An element counts as inactive when below this fraction of the largest one.
SPARSITY_THRESHOLD_RATIO = 0.05

ROW_NAMES = (
    "original_class1",
    "reconstruction_class1",
    "attacked_0to1",
    "original_class0",
    "reconstruction_class0",
    "attacked_1to0",
)


@dataclass
class ConfidenceRow:
    name: str
    mean: float
    sd: float


@dataclass
class AttackReport:
    """Everything one experiment reports about a learned perturbation, and the views it scored."""

    mode: str
    family: str
    norm_order: int
    rows: list[ConfidenceRow]
    epsilon_plus: float
    epsilon_minus: float
    detection_max: float
    sparsity_fraction: float
    config: dict = field(default_factory=dict)  # the settings echo, set as it is written
    views: dict = field(default_factory=dict, repr=False, compare=False)  # by direction

    def row(self, name: str) -> ConfidenceRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def confidence(score, true_label):
    """Score for label 1, complement for label 0; works elementwise."""
    score = np.asarray(score, dtype=np.float64)
    label = np.asarray(true_label)
    out = np.where(label == 1, score, 1.0 - score)
    return float(out) if out.ndim == 0 else out


def _scores(x: np.ndarray, classifier: ClassifierParams) -> np.ndarray:
    return classify(x, classifier).data[:, 0]


def decoded_view(vae: VaeParams, perturbation: Perturbation, test_set: Dataset,
                 direction: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The test images ``direction`` tampers with, their reconstructions and attacked decodes.

    The source class is ``DIRECTIONS.index(direction)``; both must be present before any
    encode. Its images are encoded once; the means are decoded as they are and tampered.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    test_set.require_both_classes("the evaluation test set")
    source_label = DIRECTIONS.index(direction)
    x = test_set.images[test_set.class_indices(source_label)]
    z = encode_mean(x, vae)
    tampered = tamper(z, np.full(len(x), source_label), perturbation.vectors, perturbation.family)
    return x, decode(z, vae).data, decode(tampered, vae).data


def confidence_table(views: dict, classifier: ClassifierParams) -> list[ConfidenceRow]:
    """Mean and standard deviation of confidence for the six comparison groups.

    ``views`` maps each direction to its :func:`decoded_view`. Per class:
    the raw inputs, their reconstructions, and the decoded tampered
    encodings of the opposite class moved into this class. Attacked groups
    are scored against the direction's target label, so a perfect attack
    matches the reconstruction rows exactly.
    """
    x0, recon0, attacked0 = views["0to1"]
    x1, recon1, attacked1 = views["1to0"]
    groups = {
        "original_class1": confidence(_scores(x1, classifier), 1),
        "reconstruction_class1": confidence(_scores(recon1, classifier), 1),
        "attacked_0to1": confidence(_scores(attacked0, classifier), 1),
        "original_class0": confidence(_scores(x0, classifier), 0),
        "reconstruction_class0": confidence(_scores(recon0, classifier), 0),
        "attacked_1to0": confidence(_scores(attacked1, classifier), 0),
    }
    return [
        ConfidenceRow(name, float(values.mean()), float(values.std()))
        for name, values in groups.items()
    ]


def epsilon_gap(rows: list[ConfidenceRow]) -> tuple[float, float]:
    """Signed confidence gaps between reconstructions and attacked groups.

    Returns (plus, minus): plus compares class-1 reconstructions with the
    0-to-1 attacked group, minus compares class-0 reconstructions with the
    1-to-0 attacked group. Values near zero mean tampered outputs score
    like untampered ones; magnitudes are what stealth rankings use.
    """
    by_name = {row.name: row.mean for row in rows}
    plus = by_name["reconstruction_class1"] - by_name["attacked_0to1"]
    minus = by_name["reconstruction_class0"] - by_name["attacked_1to0"]
    return plus, minus


def detection_probability(shift: float) -> float:
    """Chance a unit-Gaussian latent element shifted by ``shift`` leaves the prior interval.

    With Phi the standard normal CDF and h = PRIOR_INTERVAL_HALFWIDTH,
    this is 1 - Phi(h - shift) + Phi(-h - shift); an untouched element
    already falls outside with probability ~0.005.
    """
    def phi(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    h = PRIOR_INTERVAL_HALFWIDTH
    return 1.0 - phi(h - shift) + phi(-h - shift)


def sparsity_fraction(delta: np.ndarray) -> float:
    """The fraction of elements below 5% of the largest magnitude.

    An all-zero vector counts as fully sparse (fraction 1.0).
    """
    magnitudes = np.abs(np.asarray(delta, dtype=np.float64))
    largest = float(magnitudes.max()) if magnitudes.size else 0.0
    if largest == 0.0:
        return 1.0
    return float((magnitudes < SPARSITY_THRESHOLD_RATIO * largest).mean())


def unit_range(raw: np.ndarray) -> np.ndarray:
    """``raw`` linearly rescaled to [0, 1] for rendering; constant data maps to 0.5."""
    lo, hi = float(raw.min()), float(raw.max())
    return (raw - lo) / (hi - lo) if hi > lo else np.full_like(raw, 0.5)


def evaluate_attack(
    vae: VaeParams,
    perturbation: Perturbation,
    classifier: ClassifierParams,
    test_set: Dataset,
    mode: str | None = None,
) -> AttackReport:
    """The full report for one trained attack, over every vector's elements, and its views."""
    _require_role(classifier, "eval", "confidence tables")
    _require_same_widths({"vae": vae, "perturbation": perturbation, "classifier": classifier,
                          "dataset": test_set})
    views = {d: decoded_view(vae, perturbation, test_set, d) for d in DIRECTIONS}
    rows = confidence_table(views, classifier)
    plus, minus = epsilon_gap(rows)
    elements = np.concatenate(perturbation.vectors)
    return AttackReport(
        mode=mode or perturbation.provenance,
        family=perturbation.family,
        norm_order=perturbation.norm_order,
        rows=rows,
        epsilon_plus=plus,
        epsilon_minus=minus,
        detection_max=max(detection_probability(v) for v in elements),
        sparsity_fraction=sparsity_fraction(elements),
        views=views,
    )
