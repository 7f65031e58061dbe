"""Latent-space tampering of a small VAE: training, attacks, stealth metrics."""

from .attack import (
    AttackConfig,
    Perturbation,
    attack_loss,
    learn_attack_frozen,
    learn_attack_independent,
    learn_attack_protocol,
    tamper,
)
from .autodiff import (
    Adam,
    ShapeMismatchError,
    Tensor,
    adam_step,
    backward,
    bce,
    grad_check,
    kl_standard_normal,
    lp_penalty,
    mlp,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Dataset, feature_mask, generate_synthetic, load_idx, save_idx, split
from .evaluation import (
    AttackReport,
    ConfidenceRow,
    confidence,
    confidence_table,
    detection_probability,
    epsilon_gap,
    evaluate_attack,
    sparsity_fraction,
)
from .experiment import ExperimentPlan, grid_plans, run_experiment
from .models import (
    ClassifierParams,
    TrainConfig,
    VaeParams,
    classify,
    decode,
    encode,
    encode_mean,
    sample_latent,
    train_classifier,
    train_vae,
    vae_loss,
)
from .reporting import render_grid, report_to_csv, write_pgm

__version__ = "0.1.0"
