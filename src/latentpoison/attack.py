"""Learning a single constant latent perturbation that flips decoded classes.

Three protocols produce the perturbation:

* independent: the VAE and a classifier are already trained and frozen;
  only the perturbation is optimized against them.
* poisoning: the perturbation is optimized while the VAE itself trains,
  alternating one VAE step and one perturbation step per mini-batch.
* poisoning+class: as poisoning, but the VAE objective additionally
  rewards reconstructions the (frozen) attack classifier labels correctly,
  which sharpens class information in the latent space.

The perturbation is one vector applied identically to every encoding:
added for the 0-to-1 direction and subtracted for 1-to-0 (additive
family), or combined as z * (1 + delta) (multiplicative family, one
direction only). Optimization minimizes cross-entropy of classifier
scores on decoded tampered encodings against the flipped labels, plus an
L1 or L2 penalty on the perturbation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, ShapeMismatchError, Tensor
from .data import Dataset
from .models import (
    ClassifierParams,
    TrainConfig,
    VaeParams,
    _classifier_config,
    _epoch_batches,
    _require_both_classes,
    classify,
    decode,
    encode,
    train_classifier,
    vae_batch_loss,
)
from .seeds import ATTACK_INIT, LATENT_NOISE, PARAM_INIT, SHUFFLE, stream

FAMILIES = ("additive", "multiplicative")
DIRECTIONS = ("0to1", "1to0")


@dataclass
class AttackConfig:
    epochs: int = 80
    lr: float = 0.01
    reg_weight: float = 0.01
    norm_order: int = 2
    family: str = "additive"
    batch_size: int = 64
    seed: int = 0
    random_init: bool = False  # start from small random values instead of zeros
    per_direction: bool = False  # learn an independent vector for each direction

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.reg_weight < 0:
            raise ValueError(f"reg_weight must be non-negative, got {self.reg_weight}")
        if self.norm_order not in (1, 2):
            raise ValueError(f"norm_order must be 1 or 2, got {self.norm_order}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass
class Perturbation:
    """A learned constant latent offset plus how it was obtained.

    ``delta_reverse`` is only set when the attack was trained with one
    independent vector per direction; otherwise the single ``delta`` is
    added for 0-to-1 and subtracted for 1-to-0.
    """

    delta: np.ndarray
    norm_order: int
    family: str
    reg_weight: float
    provenance: str
    delta_reverse: np.ndarray | None = None

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if self.delta.ndim != 1:
            raise ValueError(f"delta must be a vector, got shape {self.delta.shape}")
        if not np.isfinite(self.delta).all():
            raise ValueError("delta contains non-finite entries")
        if self.delta_reverse is not None:
            self.delta_reverse = np.asarray(self.delta_reverse, dtype=np.float64)
            if self.delta_reverse.shape != self.delta.shape:
                raise ValueError("delta_reverse must match delta's shape")
            if not np.isfinite(self.delta_reverse).all():
                raise ValueError("delta_reverse contains non-finite entries")

    @property
    def latent_dim(self) -> int:
        return self.delta.shape[0]


def _operands(z, delta):
    """Plain operands as float64 arrays; z becomes a tensor when delta is one."""
    if not isinstance(z, Tensor):
        z = Tensor(z) if isinstance(delta, Tensor) else np.asarray(z, dtype=np.float64)
    if not isinstance(delta, Tensor):
        delta = np.asarray(delta, dtype=np.float64)
    if z.shape[-1] != delta.shape[-1]:
        raise ShapeMismatchError(
            f"latent width {z.shape[-1]} vs perturbation width {delta.shape[-1]}"
        )
    return z, delta


def apply_additive(z, delta, direction: str):
    """Shift encodings: z + delta for direction "0to1", z - delta for "1to0".

    Accepts arrays or graph tensors; with tensors, gradients flow to both
    operands.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    z, delta = _operands(z, delta)
    return z + delta if direction == "0to1" else z - delta


def apply_multiplicative(z, delta):
    """Gate encodings elementwise: z * (1 + delta), same form for both directions."""
    z, delta = _operands(z, delta)
    return z * (delta + 1.0)


def apply_perturbation(z, perturbation: Perturbation, direction: str):
    """Apply a trained perturbation in the requested direction."""
    if perturbation.family == "multiplicative":
        return apply_multiplicative(z, perturbation.delta)
    if direction == "1to0" and perturbation.delta_reverse is not None:
        return apply_additive(z, perturbation.delta_reverse, "1to0")
    return apply_additive(z, perturbation.delta, direction)


def attack_loss(scores: Tensor, labels, delta, norm_order: int, reg_weight: float) -> Tensor:
    """Cross-entropy toward flipped labels plus the norm penalty on delta."""
    targets = 1.0 - np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    return ad.bce(scores, targets) + reg_weight * ad.lp_penalty(delta, norm_order)


def _init_deltas(latent_dim: int, config: AttackConfig) -> tuple[Tensor, Tensor | None]:
    rng = stream(config.seed, ATTACK_INIT)

    def start(name: str) -> Tensor:
        values = rng.normal(0.0, 0.01, latent_dim) if config.random_init else np.zeros(latent_dim)
        return Tensor(values, name=name)

    return start("delta"), start("delta_reverse") if config.per_direction else None


def _tampered_codes(mu: Tensor, labels: np.ndarray, delta: Tensor, reverse: Tensor | None,
                    family: str) -> Tensor:
    """Each code tampered in its own label's direction, as one batch."""
    if family == "multiplicative":
        return apply_multiplicative(mu, delta)
    if reverse is None:
        # +delta where the label is 0, -delta where it is 1
        sign = Tensor((1.0 - 2.0 * labels).reshape(-1, 1))
        return apply_additive(mu, sign * delta, "0to1")
    up = Tensor((labels == 0).astype(np.float64).reshape(-1, 1))
    down = Tensor((labels == 1).astype(np.float64).reshape(-1, 1))
    return apply_additive(apply_additive(mu, up * delta, "0to1"), down * reverse, "1to0")


def _attack_batch_loss(
    vae: VaeParams,
    classifier: ClassifierParams,
    x: np.ndarray,
    labels: np.ndarray,
    delta: Tensor,
    reverse: Tensor | None,
    config: AttackConfig,
) -> Tensor:
    mu, _ = encode(Tensor(x), vae)
    tampered = _tampered_codes(mu, labels, delta, reverse, config.family)
    scores = classify(decode(tampered, vae), classifier)
    loss = attack_loss(scores, labels, delta, config.norm_order, config.reg_weight)
    if reverse is not None:
        loss = loss + config.reg_weight * ad.lp_penalty(reverse, config.norm_order)
    return loss


def _finish(delta: Tensor, reverse: Tensor | None, config: AttackConfig,
            provenance: str) -> Perturbation:
    if config.family == "multiplicative" and np.all(delta.data >= 0.0):
        warnings.warn(
            "multiplicative perturbation has no negative entries, so no "
            "latent sign can flip and no label swap is achievable",
            stacklevel=3,
        )
    return Perturbation(
        delta=delta.data.copy(),
        norm_order=config.norm_order,
        family=config.family,
        reg_weight=config.reg_weight,
        provenance=provenance,
        delta_reverse=None if reverse is None else reverse.data.copy(),
    )


def learn_attack_independent(
    vae: VaeParams,
    classifier: ClassifierParams,
    dataset: Dataset,
    config: AttackConfig,
) -> Perturbation:
    """Optimize the perturbation against a frozen, pre-trained VAE and classifier.

    Each batch encodes inputs to their latent means, tampers with them in
    the direction chosen by each sample's label, decodes, and scores. Only
    the perturbation is updated; VAE and classifier gradients are computed
    as a side effect and discarded.
    """
    if classifier.image_dim != vae.image_dim or dataset.image_dim != vae.image_dim:
        raise ShapeMismatchError(
            f"image widths disagree: vae {vae.image_dim}, classifier "
            f"{classifier.image_dim}, dataset {dataset.image_dim}"
        )
    delta, reverse = _init_deltas(vae.latent_dim, config)
    trained = [delta] + ([reverse] if reverse is not None else [])
    frozen = vae.parameters() + classifier.parameters()
    optimizer = Adam(trained, config.lr)
    for epoch in range(config.epochs):
        shuffle = stream(config.seed, SHUFFLE, epoch)
        for idx in _epoch_batches(len(dataset), config.batch_size, shuffle):
            loss = _attack_batch_loss(
                vae, classifier, dataset.images[idx], dataset.labels[idx],
                delta, reverse, config,
            )
            optimizer.zero_grad()
            ad.zero_grad(frozen)
            ad.backward(loss)
            optimizer.step()
    return _finish(delta, reverse, config, "independent")


def _run_poisoning(
    dataset: Dataset,
    vae_config: TrainConfig,
    attack_config: AttackConfig,
    with_class_term: bool,
    provenance: str,
) -> tuple[VaeParams, ClassifierParams, Perturbation]:
    """Joint loop shared by the two poisoning protocols.

    A fresh attack classifier is trained first and frozen. Each mini-batch
    then takes one Adam step on the VAE objective (while VAE epochs
    remain) and one Adam step on the perturbation against the current VAE
    (while attack epochs remain). The two optimizers keep separate state;
    VAE updates never depend on the perturbation, so a plain poisoning run
    reproduces the exact VAE a standalone training run would yield for the
    same config.
    """
    _require_both_classes(dataset, "attack training")
    classifier = train_classifier(dataset, _classifier_config(vae_config, "attack"), "attack")
    vae = VaeParams.initialize(
        dataset.image_dim, vae_config.latent_dim, stream(vae_config.seed, PARAM_INIT)
    )
    delta, reverse = _init_deltas(vae_config.latent_dim, attack_config)
    trained = [delta] + ([reverse] if reverse is not None else [])
    vae_optimizer = Adam(vae.parameters(), vae_config.lr)
    delta_optimizer = Adam(trained, attack_config.lr)
    frozen = classifier.parameters()
    recon_classifier = classifier if with_class_term else None
    for epoch in range(max(vae_config.epochs, attack_config.epochs)):
        noise_rng = stream(vae_config.seed, LATENT_NOISE, epoch)
        shuffle = stream(vae_config.seed, SHUFFLE, epoch)
        for idx in _epoch_batches(len(dataset), vae_config.batch_size, shuffle):
            x, y = dataset.images[idx], dataset.labels[idx]
            if epoch < vae_config.epochs:
                loss = vae_batch_loss(vae, x, y, vae_config, noise_rng, recon_classifier)
                vae_optimizer.zero_grad()
                ad.zero_grad(frozen)
                ad.backward(loss)
                vae_optimizer.step()
            if epoch < attack_config.epochs:
                loss = _attack_batch_loss(vae, classifier, x, y, delta, reverse, attack_config)
                delta_optimizer.zero_grad()
                ad.zero_grad(vae.parameters())
                ad.zero_grad(frozen)
                ad.backward(loss)
                delta_optimizer.step()
    return vae, classifier, _finish(delta, reverse, attack_config, provenance)


def learn_attack_poisoning(
    dataset: Dataset,
    vae_config: TrainConfig,
    attack_config: AttackConfig,
) -> tuple[VaeParams, Perturbation]:
    """Learn the perturbation while the VAE itself is being trained.

    The attack tracks a moving target: each perturbation step sees the
    VAE as it currently stands, so the final vector is adapted to the
    finished model without ever influencing it.
    """
    vae, _, perturbation = _run_poisoning(
        dataset, vae_config, attack_config, with_class_term=False, provenance="poisoning"
    )
    return vae, perturbation


def learn_attack_poisoning_class(
    dataset: Dataset,
    vae_config: TrainConfig,
    attack_config: AttackConfig,
) -> tuple[VaeParams, ClassifierParams, Perturbation]:
    """Poisoning with a discriminative VAE.

    The VAE objective gains a term scoring reconstructions with the frozen
    attack classifier against the true labels, weighted by
    ``vae_config.recon_class_weight`` (which must be positive here; use
    :func:`learn_attack_poisoning` for a plain run).
    """
    if vae_config.recon_class_weight <= 0:
        raise ValueError(
            "poisoning+class requires recon_class_weight > 0; "
            "use learn_attack_poisoning for a plain poisoning run"
        )
    vae, classifier, perturbation = _run_poisoning(
        dataset, vae_config, attack_config, with_class_term=True, provenance="poisoning+class"
    )
    return vae, classifier, perturbation
