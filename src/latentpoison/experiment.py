"""Experiment plans and the end-to-end pipeline behind the CLI.

A plan pins every knob of one experiment: data generation, training,
attack and output location. Running a plan produces checkpoints, a
report, a perturbation dump and image grids in the plan's directory, and
the full plan is echoed into each of them, so each report records the
complete configuration that produced it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .attack import DIRECTIONS, MODES, AttackConfig, Perturbation, learn_attack_protocol
from .data import Dataset, _require_data_settings, generate_synthetic, split
from .evaluation import AttackReport, evaluate_attack, unit_range
from .models import (ClassifierParams, TrainConfig, VaeParams, _classifier_config,
                     _require_class_weight, train_classifier)
from .checkpoint import save_checkpoint
from .reporting import render_grid, write_delta, write_report
from .seeds import ATTACK, derive_seed

GRID_IMAGES = 16
GRID_COLUMNS = 4


class ExperimentError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass
class ExperimentPlan:
    """Complete configuration of one attack experiment."""

    mode: str = "independent"
    family: str = "additive"
    norm_order: int = 2
    # data
    sample_count: int = 2100
    width: int = 16
    height: int = 16
    test_count: int = 100
    data_seed: int = 7
    # vae / classifier training
    vae_epochs: int = 150
    kl_weight: float = 0.1
    recon_class_weight: float = 1.0
    lr: float = 2e-4
    batch_size: int = 64
    latent_dim: int = 32
    # attack training
    attack_epochs: int = 80
    attack_lr: float = 0.01
    reg_weight: float = 0.01
    # reproducibility and output
    seed: int = 0
    out_dir: str = "runs/experiment"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # the data's and the configs' own rules, checked before any stage runs
        _require_data_settings(self.sample_count, self.width, self.height, self.test_count)
        self.vae_config()
        if self.mode == "poisoning+class":
            _require_class_weight(self.recon_class_weight, self.mode)
        self.attack_config()

    def vae_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.vae_epochs,
            kl_weight=self.kl_weight,
            recon_class_weight=self.recon_class_weight,
            lr=self.lr,
            batch_size=self.batch_size,
            latent_dim=self.latent_dim,
            seed=self.seed,
        )

    def attack_config(self) -> AttackConfig:
        return AttackConfig(
            epochs=self.attack_epochs,
            lr=self.attack_lr,
            reg_weight=self.reg_weight,
            norm_order=self.norm_order,
            family=self.family,
            batch_size=self.batch_size,
            seed=derive_seed(self.seed, ATTACK),
        )


def _stage(name: str):
    def wrap(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise ExperimentError(f"stage {name!r} failed: {exc}") from exc

    return wrap


def make_dataset(plan: ExperimentPlan) -> tuple[Dataset, Dataset]:
    full = generate_synthetic(plan.sample_count, plan.width, plan.height, plan.data_seed)
    return split(full, plan.test_count, plan.data_seed)


def write_outputs(plan: ExperimentPlan, report: AttackReport, vae: VaeParams,
                  eval_classifier: ClassifierParams, attack_classifier: ClassifierParams | None,
                  perturbation: Perturbation) -> None:
    """Save the plan's checkpoints, report and dumps, and draw its PGMs from ``report.views``."""
    out = Path(plan.out_dir)
    echo = dataclasses.asdict(plan)
    save_checkpoint(vae, out / "vae.ckpt", config=echo)
    save_checkpoint(eval_classifier, out / "eval_classifier.ckpt", config=echo)
    if attack_classifier is not None:
        save_checkpoint(attack_classifier, out / "attack_classifier.ckpt", config=echo)
    save_checkpoint(perturbation, out / "perturbation.ckpt", config=echo)
    write_report(report, out / "report.csv")
    write_delta(perturbation, out / "delta_elements.csv")
    for direction, (_, recon, attacked) in report.views.items():
        diff = unit_range(attacked - recon)
        grids = {f"recon_class{DIRECTIONS.index(direction)}": recon,
                 f"attacked_{direction}": attacked, f"diff_{direction}": diff}
        for name, pixels in grids.items():
            tiles = [image.reshape(plan.height, plan.width) for image in pixels[:GRID_IMAGES]]
            render_grid(tiles, GRID_COLUMNS, out / f"{name}.pgm")


def run_experiment(plan: ExperimentPlan) -> AttackReport:
    """Execute the full pipeline for one plan and write all outputs.

    The report comes back without its views: the plan's PGMs hold them by
    then, and a caller that keeps reports across plans keeps no pixels.
    """
    train_set, test_set = _stage("data")(make_dataset, plan)
    eval_classifier = _stage("train-eval-classifier")(
        train_classifier, train_set, _classifier_config(plan.vae_config(), "eval"), "eval"
    )
    vae, attack_classifier, perturbation = _stage("learn-attack")(
        learn_attack_protocol, plan.mode, train_set, plan.vae_config(), plan.attack_config()
    )
    report = _stage("evaluate")(evaluate_attack, vae, perturbation, eval_classifier, test_set,
                                config=dataclasses.asdict(plan), mode=plan.mode)
    _stage("write-outputs")(
        write_outputs, plan, report, vae, eval_classifier, attack_classifier, perturbation
    )
    return dataclasses.replace(report, views={})


def grid_plans(
    out_root, base: ExperimentPlan | None = None, include_multiplicative: bool = False
) -> list[ExperimentPlan]:
    """One plan per attack mode and norm order (and family, if requested).

    All plans share the base seeds and data, so cross-plan comparisons see
    the same world and differ only in mode, regularization and family.
    """
    base = base or ExperimentPlan()
    families = ("additive", "multiplicative") if include_multiplicative else ("additive",)
    return [
        dataclasses.replace(base, mode=mode, family=family, norm_order=norm_order, out_dir=str(
            Path(out_root) / f"{mode.replace('+', '_')}_{family}_l{norm_order}"))
        for family in families for mode in MODES for norm_order in (2, 1)
    ]
