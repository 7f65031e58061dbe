"""Encoder, decoder and classifier networks plus their trainers.

All networks are small tanh MLPs over flattened pixels, each one
:func:`autodiff.mlp` chain. The encoder's trunk feeds two one-layer
affine heads (mean and log variance of the latent Gaussian), the decoder
and classifier end in a sigmoid. Smooth activations keep
finite-difference gradient checks tight everywhere.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, ShapeMismatchError, Tensor
from .data import Dataset
from .seeds import (
    ATTACK_CLASSIFIER,
    EVAL_CLASSIFIER,
    LATENT_NOISE,
    PARAM_INIT,
    SHUFFLE,
    derive_seed,
    stream,
)

ENCODER_HIDDEN = (256, 128)
CLASSIFIER_HIDDEN = (128, 64)

# What a classifier is trained for: the attacker's target or the judge.
ROLES = ("attack", "eval")

# Weight initialization, recorded in checkpoints alongside the layout.
INIT_SCHEME = "uniform(+-sqrt(6/(fan_in+fan_out))), zero bias"


def _require_role(classifier: ClassifierParams, role: str, use: str) -> None:
    """Reject a classifier of the other role: the attack never shapes itself on the judge."""
    if classifier.role != role:
        raise ValueError(f"{use} must use the {role} classifier, got role {classifier.role!r}")


def _require_same_widths(parts: dict) -> None:
    """The one width rule: the named parts' image widths agree, and so do their latent widths.

    A part has an image width if it has ``image_dim`` (a VAE, a classifier,
    a dataset) and a latent width if it has ``latent_dim`` (a VAE, a
    perturbation). The names label the message: roles in the library,
    file paths in the CLI.
    """
    for kind in ("image", "latent"):
        widths = {name: getattr(part, f"{kind}_dim") for name, part in parts.items()
                  if hasattr(part, f"{kind}_dim")}
        if len(set(widths.values())) > 1:
            listed = ", ".join(f"{name} {width}" for name, width in widths.items())
            raise ShapeMismatchError(f"{kind} widths disagree: {listed}")


def _require_finite(**settings: float) -> None:
    """Reject a NaN or infinite setting by name, before any training step can diverge."""
    for name, value in settings.items():
        if isinstance(value, float) and not math.isfinite(value):  # an int of any size is finite
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class TrainConfig:
    """Hyperparameters shared by the VAE and classifier trainers.

    ``kl_weight`` scales the latent prior term of the VAE objective;
    ``recon_class_weight`` scales the optional classification loss on
    reconstructions and is only consumed when a reconstruction classifier
    is supplied.
    """

    epochs: int = 60
    kl_weight: float = 0.1
    recon_class_weight: float = 0.0
    lr: float = 2e-4
    batch_size: int = 64
    latent_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        _require_finite(lr=self.lr, kl_weight=self.kl_weight,
                        recon_class_weight=self.recon_class_weight)
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.kl_weight < 0:
            raise ValueError(f"kl_weight must be non-negative, got {self.kl_weight}")
        if self.recon_class_weight < 0:
            raise ValueError(
                f"recon_class_weight must be non-negative, got {self.recon_class_weight}"
            )
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be at least 1, got {self.latent_dim}")


def _require_class_weight(weight: float, use: str, name: str = "recon_class_weight") -> None:
    """The class-term weight rule: ``use``, a reconstruction class term, needs ``name`` above 0."""
    if weight <= 0:
        raise ValueError(f"{use} needs {name} > 0, got {weight}")


def _classifier_config(config: TrainConfig, role: str) -> TrainConfig:
    """``config`` reseeded for the ``role`` classifier.

    Each role has one sub-seed of ``config.seed``, so every protocol trains
    the same classifier for a role and the two roles never share weights.
    """
    tag = (ATTACK_CLASSIFIER, EVAL_CLASSIFIER)[ROLES.index(role)]
    return dataclasses.replace(config, seed=derive_seed(config.seed, tag))


# A network's layout lists (name, fan_in, fan_out) per layer in parameters()
# order; initialization draws and checkpoints store the layers in that order.


def _chain(prefix: str, sizes: list[int]) -> list[tuple[str, int, int]]:
    return [(f"{prefix}{i}", sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]


def _init_arrays(layout: list[tuple[str, int, int]], rng) -> list[np.ndarray]:
    """Weights and biases per INIT_SCHEME, drawn in layout order."""
    arrays = []
    for _, fan_in, fan_out in layout:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        arrays += [rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out)]
    return arrays


def _named_layers(layout: list[tuple[str, int, int]], arrays) -> list[tuple[Tensor, Tensor]]:
    """Pair flat (weight, bias, ...) arrays into tensors named after their layer."""
    return [
        (Tensor(arrays[2 * i], name=f"{name}.weight"), Tensor(arrays[2 * i + 1], name=f"{name}.bias"))
        for i, (name, _, _) in enumerate(layout)
    ]


def _flatten(layers) -> list[Tensor]:
    """``[weight, bias, ...]`` of ``(weight, bias)`` layers, in order: the one parameter order."""
    return [tensor for layer in layers for tensor in layer]


@dataclass
class VaeParams:
    """Parameters of the encoder/decoder pair.

    ``hidden`` records the encoder hidden widths; the decoder mirrors them,
    which is all a checkpoint needs to rebuild the layout.
    """

    encoder_layers: list[tuple[Tensor, Tensor]]
    mu_head: tuple[Tensor, Tensor]
    log_var_head: tuple[Tensor, Tensor]
    decoder_layers: list[tuple[Tensor, Tensor]]
    latent_dim: int
    image_dim: int
    hidden: tuple[int, ...]

    @staticmethod
    def layout(
        image_dim: int, latent_dim: int, hidden: tuple[int, ...]
    ) -> list[tuple[str, int, int]]:
        sizes = [image_dim, *hidden]
        return [
            *_chain("enc", sizes),
            ("mu", sizes[-1], latent_dim),
            ("log_var", sizes[-1], latent_dim),
            *_chain("dec", [latent_dim, *reversed(hidden), image_dim]),
        ]

    @classmethod
    def _from_arrays(
        cls, arrays, image_dim: int, latent_dim: int, hidden: tuple[int, ...]
    ) -> "VaeParams":
        hidden = tuple(hidden)
        layers = _named_layers(cls.layout(image_dim, latent_dim, hidden), arrays)
        n = len(hidden)
        return cls(layers[:n], layers[n], layers[n + 1], layers[n + 2 :], latent_dim, image_dim, hidden)

    @classmethod
    def initialize(
        cls, image_dim: int, latent_dim: int, rng, hidden: tuple[int, ...] = ENCODER_HIDDEN
    ) -> "VaeParams":
        arrays = _init_arrays(cls.layout(image_dim, latent_dim, hidden), rng)
        return cls._from_arrays(arrays, image_dim, latent_dim, hidden)

    def parameters(self) -> list[Tensor]:
        return _flatten([*self.encoder_layers, self.mu_head, self.log_var_head, *self.decoder_layers])


@dataclass
class ClassifierParams:
    """Parameters of a binary pixel classifier with a role tag.

    The same architecture is trained twice with different seeds: the
    "attack" instance is the one attack optimization may query, the "eval"
    instance is reserved for reporting so results are not scored by the
    classifier that shaped them.
    """

    layers: list[tuple[Tensor, Tensor]]
    role: str
    image_dim: int
    hidden: tuple[int, ...]

    @staticmethod
    def layout(image_dim: int, hidden: tuple[int, ...]) -> list[tuple[str, int, int]]:
        return _chain("clf", [image_dim, *hidden, 1])

    @classmethod
    def _from_arrays(
        cls, arrays, image_dim: int, hidden: tuple[int, ...], role: str
    ) -> "ClassifierParams":
        hidden = tuple(hidden)
        return cls(_named_layers(cls.layout(image_dim, hidden), arrays), role, image_dim, hidden)

    @classmethod
    def initialize(
        cls, image_dim: int, rng, role: str, hidden: tuple[int, ...] = CLASSIFIER_HIDDEN
    ) -> "ClassifierParams":
        arrays = _init_arrays(cls.layout(image_dim, hidden), rng)
        return cls._from_arrays(arrays, image_dim, hidden, role)

    def parameters(self) -> list[Tensor]:
        return _flatten(self.layers)


def _as_batch(x, expected_dim: int, what: str) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.data.ndim != 2 or t.data.shape[1] != expected_dim:
        raise ShapeMismatchError(
            f"{what}: expected [batch, {expected_dim}], got {t.data.shape}"
        )
    return t


def encode(x, params: VaeParams) -> tuple[Tensor, Tensor]:
    """Forward pass to the two latent heads (mean, log variance)."""
    t = ad.mlp(_as_batch(x, params.image_dim, "encode"), params.encoder_layers, "tanh")
    return ad.mlp(t, [params.mu_head], None), ad.mlp(t, [params.log_var_head], None)


def encode_mean(x, vae: VaeParams) -> np.ndarray:
    """Deterministic encoding as a plain array: the mean head ends the encoder's one chain."""
    layers = [*vae.encoder_layers, vae.mu_head]
    return ad.mlp(_as_batch(x, vae.image_dim, "encode"), layers, None).data


def sample_latent(mu: Tensor, log_var: Tensor, rng) -> Tensor:
    """Reparameterized draw z = mu + exp(log_var / 2) * eps.

    The noise is a constant in the graph, so gradients reach mu and
    log_var but not the draw itself.
    """
    if mu.data.shape != log_var.data.shape:
        raise ShapeMismatchError(f"sample: mu {mu.data.shape} vs log_var {log_var.data.shape}")
    noise = Tensor(rng.standard_normal(mu.data.shape))
    return mu + ad.exp(log_var * 0.5) * noise


def decode(z, params: VaeParams) -> Tensor:
    """Forward pass from latent codes to pixels in (0, 1)."""
    return ad.mlp(_as_batch(z, params.latent_dim, "decode"), params.decoder_layers, "sigmoid")


def classify(x, params: ClassifierParams) -> Tensor:
    """Per-sample scores in (0, 1), shape [batch, 1]."""
    return ad.mlp(_as_batch(x, params.image_dim, "classify"), params.layers, "sigmoid")


def vae_loss(x, x_hat: Tensor, mu: Tensor, log_var: Tensor, kl_weight: float) -> Tensor:
    """Reconstruction cross-entropy plus the weighted latent prior term."""
    return ad.bce(x_hat, x) + kl_weight * ad.kl_standard_normal(mu, log_var)


def _label_column(labels: np.ndarray) -> np.ndarray:
    return np.asarray(labels, dtype=np.float64).reshape(-1, 1)


def _epoch_batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


def _train(n: int, batch_size: int, seed: int, steps: list[tuple]) -> None:
    """The one training loop: every trainer and attack protocol runs here.

    A step is an ``(epochs, optimizer, batch_loss)`` tuple. Each epoch draws
    the batch order and the latent noise from ``seed``; on every batch, each
    step with epochs left takes, in list order, one Adam step on
    ``batch_loss(idx, noise, place)`` toward its own optimizer's parameters.
    ``place`` names the batch for an error, "epoch E, batch B of N", from 1;
    a non-finite loss is a ``ValueError`` naming it.
    """
    for epoch in range(max(epochs for epochs, _, _ in steps)):
        noise = stream(seed, LATENT_NOISE, epoch)
        batches = _epoch_batches(n, batch_size, stream(seed, SHUFFLE, epoch))
        for batch, idx in enumerate(batches, 1):
            place = f"epoch {epoch + 1}, batch {batch} of {len(batches)}"
            for epochs, optimizer, batch_loss in steps:
                if epoch < epochs:
                    loss = batch_loss(idx, noise, place)
                    if not np.isfinite(loss.data).all():
                        raise ValueError(f"non-finite loss {loss.data} at {place}")
                    ad.backward(loss, optimizer.params)
                    del loss  # free this graph before the next step builds its own
                    optimizer.step()


def train_classifier(dataset: Dataset, config: TrainConfig, role: str) -> ClassifierParams:
    """Fit a binary classifier with Adam; same config and seed, same parameters.

    A batch whose predictions are all clamped by :func:`autodiff.bce`, some
    on the wrong side, has a zero gradient, so training could never recover:
    that is a ``ValueError`` naming its epoch and batch, from 1.
    """
    dataset.require_both_classes("train_classifier")
    params = ClassifierParams.initialize(
        dataset.image_dim, stream(config.seed, PARAM_INIT), role
    )
    targets = _label_column(dataset.labels)

    def batch_loss(idx, noise, place):
        scores, t = classify(dataset.images[idx], params), targets[idx]
        p = scores.data
        wrong = int(((p > 0.5) != (t == 1)).sum())
        if wrong and ((p < ad.BCE_CLAMP) | (p > 1.0 - ad.BCE_CLAMP)).all():
            raise ValueError(
                f"saturated classifier at {place}: "
                f"every prediction is clamped and {wrong} of {len(p)} are wrong, "
                f"so the gradient is zero"
            )
        return ad.bce(scores, t)

    step = (config.epochs, Adam(params.parameters(), config.lr), batch_loss)
    _train(len(dataset), config.batch_size, config.seed, [step])
    return params


def vae_batch_loss(
    vae: VaeParams,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    noise_rng,
    recon_classifier: ClassifierParams | None = None,
) -> Tensor:
    """Training objective for one batch; labels only matter with a classifier term."""
    xt = Tensor(x)
    mu, log_var = encode(xt, vae)
    z = sample_latent(mu, log_var, noise_rng)
    x_hat = decode(z, vae)
    loss = vae_loss(x, x_hat, mu, log_var, config.kl_weight)
    if recon_classifier is not None:
        recon_scores = classify(x_hat, recon_classifier)
        loss = loss + config.recon_class_weight * ad.bce(recon_scores, _label_column(y))
    return loss


def _vae_step(dataset: Dataset, config: TrainConfig,
              recon_classifier: ClassifierParams | None) -> tuple[VaeParams, tuple]:
    """A freshly initialized VAE and its :func:`_train` step on ``dataset``."""
    if recon_classifier is not None:
        _require_role(recon_classifier, "attack", "the reconstruction term")
        _require_class_weight(config.recon_class_weight, "a reconstruction classifier")
        _require_same_widths({"classifier": recon_classifier, "dataset": dataset})
    vae = VaeParams.initialize(
        dataset.image_dim, config.latent_dim, stream(config.seed, PARAM_INIT)
    )

    def batch_loss(idx, noise, place):
        return vae_batch_loss(
            vae, dataset.images[idx], dataset.labels[idx], config, noise, recon_classifier
        )

    return vae, (config.epochs, Adam(vae.parameters(), config.lr), batch_loss)


def train_vae(
    dataset: Dataset,
    config: TrainConfig,
    recon_classifier: ClassifierParams | None = None,
) -> VaeParams:
    """Fit the VAE with Adam as the one step of :func:`_train`, seeded by ``config.seed``.

    With ``recon_classifier`` set, the objective also pushes decoded
    reconstructions toward their true class under that (frozen,
    ``attack``-role) classifier, weighted by ``config.recon_class_weight``.
    Gradients flow back through the classifier to the VAE only; its own
    parameters get none and are never updated here.
    """
    vae, step = _vae_step(dataset, config, recon_classifier)
    _train(len(dataset), config.batch_size, config.seed, [step])
    return vae
