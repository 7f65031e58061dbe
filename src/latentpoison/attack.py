"""Learning a single constant latent perturbation that flips decoded classes.

The paper's three protocols are the ``MODES``, and
:func:`learn_attack_protocol` is their one entry point; every protocol
learns its perturbations in one :func:`_learn_attacks` run:

* independent: the VAE and the attack classifier are trained first and
  then frozen; only the perturbations are optimized against them, on
  latent means encoded once (:func:`learn_attack_frozen`, which also
  attacks networks loaded from checkpoints).
* poisoning: the perturbation is optimized while the VAE itself trains,
  one VAE step and then one perturbation step per mini-batch.
* poisoning+class: as poisoning, but the VAE objective additionally
  rewards reconstructions the (frozen) attack classifier labels correctly,
  which sharpens class information in the latent space.

The perturbation is one vector applied identically to every encoding by
:func:`tamper`, the one rule for training and evaluation: added to
class-0 codes and subtracted from class-1 codes (additive family,
optionally with a second vector for 1-to-0), or combined as
z * (1 + delta) (multiplicative family, one form for both directions).
Optimization minimizes :func:`attack_loss`: cross-entropy of classifier
scores on decoded tampered encodings against the flipped labels, plus an
L1 or L2 penalty on each vector.
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
    _require_bound,
    _require_class_weight,
    _require_finite,
    _require_role,
    _require_same_widths,
    _train,
    _vae_step,
    classify,
    decode,
    encode,  # not used here: perfbench's tracer test rebinds attack.encode
    encode_mean,
    train_classifier,
    train_vae,
)
from .seeds import ATTACK_INIT, stream

MODES = ("independent", "poisoning", "poisoning+class")
FAMILIES = ("additive", "multiplicative")
DIRECTIONS = ("0to1", "1to0")
VECTOR_NAMES = ("delta", "delta_reverse")  # Perturbation's vector fields, in payload order


def _check_fields(norm_order: int, family: str, reg_weight: float, vector_count: int) -> None:
    """The rules an attack config and a learned perturbation share."""
    _require_finite(reg_weight=reg_weight)
    _require_bound("non-negative", reg_weight=reg_weight)
    if norm_order not in (1, 2):
        raise ValueError(f"norm_order must be 1 or 2, got {norm_order}")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if family == "multiplicative" and vector_count > 1:
        raise ValueError("per_direction needs the additive family: "
                         "a multiplicative perturbation has one vector")


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
        _require_finite(lr=self.lr)
        _require_bound("non-negative", epochs=self.epochs)
        _require_bound("positive", lr=self.lr)
        _check_fields(self.norm_order, self.family, self.reg_weight, 2 if self.per_direction else 1)
        _require_bound("at least 1", batch_size=self.batch_size)


@dataclass
class Perturbation:
    """A learned constant latent offset plus how it was obtained.

    ``delta_reverse`` is only set when an additive attack was trained with
    one independent vector per direction; otherwise the single ``delta`` is
    added for 0-to-1 and subtracted for 1-to-0. A multiplicative
    perturbation has ``delta`` alone.
    """

    delta: np.ndarray
    norm_order: int
    family: str
    reg_weight: float
    provenance: str
    delta_reverse: np.ndarray | None = None

    def __post_init__(self):
        _check_fields(self.norm_order, self.family, self.reg_weight, len(self.vectors))
        if self.provenance not in MODES:
            raise ValueError(f"provenance must be one of {MODES}, got {self.provenance!r}")
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if self.delta.ndim != 1:
            raise ValueError(f"delta must be a vector, got shape {self.delta.shape}")
        _require_bound("at least 1", latent_dim=self.latent_dim)
        if self.delta_reverse is not None:
            self.delta_reverse = np.asarray(self.delta_reverse, dtype=np.float64)
        for name, vector in zip(VECTOR_NAMES, self.vectors):
            if vector.shape != self.delta.shape:
                raise ValueError(f"{name} must match delta's shape")
            if not np.isfinite(vector).all():
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        """``(delta,)`` or ``(delta, delta_reverse)``: every vector, in payload order."""
        return (self.delta,) if self.delta_reverse is None else (self.delta, self.delta_reverse)

    @property
    def latent_dim(self) -> int:
        return self.delta.shape[0]


def tamper(codes, labels, vectors, family: str) -> Tensor:
    """Each code moved toward the other class of its label, as one graph tensor.

    The one perturbation rule, for training and evaluation alike. Additive:
    label-0 codes get ``+delta``, label-1 codes ``-delta``, or
    ``-delta_reverse`` when given. Multiplicative: every code becomes
    z * (1 + delta). ``codes`` and ``vectors`` (:attr:`Perturbation.vectors`)
    may be arrays or tensors; gradients flow to every tensor among them.
    """
    labels, width = np.asarray(labels), np.shape(codes)[-1]
    for vector in vectors:
        if np.shape(vector)[-1] != width:
            raise ShapeMismatchError(
                f"latent width {width} vs perturbation width {np.shape(vector)[-1]}"
            )
    if family == "multiplicative":
        return ad.mul(codes, ad.add(vectors[0], 1.0))
    if len(vectors) == 1:
        # +delta where the label is 0, -delta where it is 1
        return ad.add(codes, ad.mul((1.0 - 2.0 * labels).reshape(-1, 1), vectors[0]))
    up = (labels == 0).astype(np.float64).reshape(-1, 1)
    down = -(labels == 1).astype(np.float64).reshape(-1, 1)
    return ad.add(ad.add(codes, ad.mul(up, vectors[0])), ad.mul(down, vectors[1]))


def attack_loss(scores: Tensor, labels, vectors, norm_order: int, reg_weight: float) -> Tensor:
    """Cross-entropy toward flipped labels plus the norm penalty on each vector, in order."""
    targets = 1.0 - np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    loss = ad.bce(scores, targets)
    for vector in vectors:
        loss = loss + reg_weight * ad.lp_penalty(vector, norm_order)
    return loss


def _init_deltas(latent_dim: int, config: AttackConfig) -> list[Tensor]:
    """The vectors a config learns, in :attr:`Perturbation.vectors` order."""
    rng = stream(config.seed, ATTACK_INIT)
    return [
        Tensor(rng.normal(0.0, 0.01, latent_dim) if config.random_init else np.zeros(latent_dim),
               name=name)
        for name in VECTOR_NAMES[: 2 if config.per_direction else 1]
    ]


def _attack_batch_loss(
    vae: VaeParams,
    classifier: ClassifierParams,
    codes: np.ndarray,
    labels: np.ndarray,
    vectors: list[Tensor],
    config: AttackConfig,
) -> Tensor:
    """Attack objective for one batch of latent means, given as a plain array.

    The codes are constants of the graph: only the decoder, the classifier
    and the perturbation lie between them and the loss.
    """
    scores = classify(decode(tamper(codes, labels, vectors, config.family), vae), classifier)
    return attack_loss(scores, labels, vectors, config.norm_order, config.reg_weight)


def _latent_means(vae: VaeParams, images: np.ndarray, chunk: int) -> np.ndarray:
    """Latent means of ``images``, encoded in row order ``chunk`` rows at a time.

    Chunking bounds peak memory at one batch's activations.
    """
    return np.concatenate([
        encode_mean(images[start : start + chunk], vae) for start in range(0, len(images), chunk)
    ])


def _attack_step(vae: VaeParams, classifier: ClassifierParams, labels: np.ndarray,
                 config: AttackConfig, codes) -> tuple[list[Tensor], tuple]:
    """Freshly initialized perturbation vectors and their :func:`models._train` step."""
    vectors = _init_deltas(vae.latent_dim, config)

    def batch_loss(idx, noise, place):
        return _attack_batch_loss(vae, classifier, codes(idx), labels[idx], vectors, config)

    return vectors, (config.epochs, Adam(vectors, config.lr), batch_loss)


def _learn_attacks(vae: VaeParams, classifier: ClassifierParams, labels: np.ndarray, configs,
                   codes, lead: list, seed: int, batch_size: int, provenance: str) -> list:
    """One perturbation per config, learned together in one :func:`models._train` call.

    The one attack run of every protocol: on each batch of ``seed``'s order
    the ``lead`` steps go first, then each config's step while its epochs
    last. ``codes(idx)`` gives the batch's latent means as a plain array,
    read once per batch, after the lead steps. Steps share no parameter,
    so each perturbation is the one its config learns alone.
    """
    last = None, None  # the batch most recently read, and its codes

    def batch_codes(idx):
        nonlocal last
        if last[0] is not idx:
            last = idx, codes(idx)
        return last[1]

    attacks = [_attack_step(vae, classifier, labels, config, batch_codes) for config in configs]
    _train(len(labels), batch_size, seed, [*lead, *(step for _, step in attacks)])
    perturbations = []
    for (vectors, _), config in zip(attacks, configs):
        delta, *reverse = (vector.data.copy() for vector in vectors)
        if config.family == "multiplicative" and np.all(delta >= 0.0):
            warnings.warn(
                "multiplicative perturbation has no negative entries, so no "
                "latent sign can flip and no label swap is achievable",
                stacklevel=3,
            )
        perturbations.append(Perturbation(
            delta=delta,
            norm_order=config.norm_order,
            family=config.family,
            reg_weight=config.reg_weight,
            provenance=provenance,
            delta_reverse=reverse[0] if reverse else None,
        ))
    return perturbations


def _batch_keys(configs) -> list[tuple[int, int]]:
    """``[(seed, batch_size)]`` the configs share (``[]`` for none), else a ``ValueError``."""
    keys = list(dict.fromkeys((config.seed, config.batch_size) for config in configs))
    if len(keys) > 1:
        raise ValueError(f"configs must share one (seed, batch_size), got {keys[0]} and {keys[1]}")
    return keys


def learn_attack_frozen(vae: VaeParams, classifier: ClassifierParams, dataset: Dataset,
                        *configs: AttackConfig) -> list[Perturbation]:
    """One perturbation per config against a frozen, pre-trained VAE and classifier, in order.

    The configs share one ``(seed, batch_size)``, else it is a ``ValueError``
    naming two that differ; they share one encoding and one
    :func:`_learn_attacks` run. The frozen encoder's latent means are
    computed once, in row order, ``batch_size`` rows at a time; ``seed``
    fixes the batch order. Only the perturbations are differentiated and
    updated, never a VAE or classifier weight. A cached row equals a
    per-batch encoding's, except that numpy multiplies a one-row batch by
    gemv, not gemm: when ``len(dataset) % batch_size == 1`` the result may
    differ from per-batch encoding by about 1e-16.

    ``classifier`` must have the ``attack`` role: the ``eval`` classifier
    judges the result and never shapes it.
    """
    _require_role(classifier, "attack", "the independent attack")
    _require_same_widths({"vae": vae, "classifier": classifier, "dataset": dataset})
    dataset.require_both_classes("learn_attack_frozen")
    keys = _batch_keys(configs)
    if not configs:
        return []
    [(seed, batch_size)] = keys
    codes = _latent_means(vae, dataset.images, batch_size)
    return _learn_attacks(vae, classifier, dataset.labels, configs, lambda idx: codes[idx], [],
                          seed, batch_size, "independent")


def learn_attack_independent(vae: VaeParams, classifier: ClassifierParams, dataset: Dataset,
                             config: AttackConfig) -> Perturbation:
    """:func:`learn_attack_frozen` for one config."""
    return learn_attack_frozen(vae, classifier, dataset, config)[0]


def learn_attack_protocol(
    mode: str,
    dataset: Dataset,
    vae_config: TrainConfig,
    *attack_configs: AttackConfig,
) -> tuple:
    """Train the attack classifier, the VAE and one perturbation per config as ``mode`` says.

    The attack classifier comes first, once, on its role's sub-seed of
    ``vae_config.seed``. ``independent`` then trains the VAE alone and
    attacks it frozen with every config through :func:`learn_attack_frozen`,
    so the configs must share one ``(seed, batch_size)``, checked before any training.
    The poisoning modes run the VAE step as the lead of one
    :func:`_learn_attacks` run on the VAE's seed and batches, so every
    config's ``batch_size`` must equal the VAE's (else a ``ValueError``
    naming both) and a config's ``seed`` only seeds ``random_init``; a batch's
    perturbation steps share one encoding by the VAE as its step left it.
    VAE steps never read a perturbation, so several configs share one VAE
    trajectory, each perturbation is the one its config learns alone, and a
    plain poisoning run reproduces :func:`models.train_vae` for the same
    config exactly. ``poisoning+class`` adds the classifier's reconstruction
    term, weighted by ``vae_config.recon_class_weight``, which must be
    positive there; the other modes ignore that weight.

    Returns ``(vae, attack_classifier, *perturbations)`` in config order,
    the classifier ``None`` for ``poisoning``, whose VAE never sees it.
    Each perturbation's provenance is ``mode``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    with_class_term = mode == "poisoning+class"
    if with_class_term:
        _require_class_weight(vae_config.recon_class_weight, mode)
    sizes = {config.batch_size for config in attack_configs} - {vae_config.batch_size}
    if mode == "independent":
        _batch_keys(attack_configs)
    elif sizes:
        raise ValueError(f"{mode} attacks run on the VAE's batches: attack batch_size "
                         f"{min(sizes)} differs from the VAE's {vae_config.batch_size}")
    classifier = train_classifier(dataset, _classifier_config(vae_config, "attack"), "attack")
    if mode == "independent":
        vae = train_vae(dataset, vae_config)
        return vae, classifier, *learn_attack_frozen(vae, classifier, dataset, *attack_configs)
    vae, vae_step = _vae_step(dataset, vae_config, classifier if with_class_term else None)
    return vae, classifier if with_class_term else None, *_learn_attacks(
        vae, classifier, dataset.labels, attack_configs,
        lambda idx: encode_mean(dataset.images[idx], vae), [vae_step],
        vae_config.seed, vae_config.batch_size, mode,
    )
