"""Encoder, decoder and classifier networks plus their trainers.

All networks are small tanh MLPs over flattened pixels. The encoder ends
in two linear heads (mean and log variance of the latent Gaussian), the
decoder and classifier end in a sigmoid. Smooth activations keep
finite-difference gradient checks tight everywhere.
"""

from __future__ import annotations

import dataclasses
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

# Weight initialization, recorded in checkpoints alongside the layout.
INIT_SCHEME = "uniform(+-sqrt(6/(fan_in+fan_out))), zero bias"


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
        if self.batch_size < 1 or self.latent_dim < 1:
            raise ValueError("batch_size and latent_dim must be at least 1")


def _classifier_config(config: TrainConfig, role: str) -> TrainConfig:
    """``config`` reseeded for the ``role`` classifier.

    Each role has one sub-seed of ``config.seed``, so every protocol trains
    the same classifier for a role and the two roles never share weights.
    """
    tag = {"attack": ATTACK_CLASSIFIER, "eval": EVAL_CLASSIFIER}[role]
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
        out = []
        for w, b in [*self.encoder_layers, self.mu_head, self.log_var_head, *self.decoder_layers]:
            out.extend((w, b))
        return out


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
        out = []
        for w, b in self.layers:
            out.extend((w, b))
        return out


def _as_batch(x, expected_dim: int, what: str) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.data.ndim != 2 or t.data.shape[1] != expected_dim:
        raise ShapeMismatchError(
            f"{what}: expected [batch, {expected_dim}], got {t.data.shape}"
        )
    return t


def encode(x, params: VaeParams) -> tuple[Tensor, Tensor]:
    """Forward pass to the two latent heads (mean, log variance)."""
    t = _as_batch(x, params.image_dim, "encode")
    for w, b in params.encoder_layers:
        t = ad.tanh(ad.linear(t, w, b))
    return ad.linear(t, *params.mu_head), ad.linear(t, *params.log_var_head)


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
    t = _as_batch(z, params.latent_dim, "decode")
    for w, b in params.decoder_layers[:-1]:
        t = ad.tanh(ad.linear(t, w, b))
    return ad.sigmoid(ad.linear(t, *params.decoder_layers[-1]))


def classify(x, params: ClassifierParams) -> Tensor:
    """Per-sample scores in (0, 1), shape [batch, 1]."""
    t = _as_batch(x, params.image_dim, "classify")
    for w, b in params.layers[:-1]:
        t = ad.tanh(ad.linear(t, w, b))
    return ad.sigmoid(ad.linear(t, *params.layers[-1]))


def vae_loss(x, x_hat: Tensor, mu: Tensor, log_var: Tensor, kl_weight: float) -> Tensor:
    """Reconstruction cross-entropy plus the weighted latent prior term."""
    return ad.bce(x_hat, x) + kl_weight * ad.kl_standard_normal(mu, log_var)


def _label_column(labels: np.ndarray) -> np.ndarray:
    return np.asarray(labels, dtype=np.float64).reshape(-1, 1)


def _epoch_batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


def _require_both_classes(dataset: Dataset, what: str) -> None:
    if len(dataset.class_indices(0)) == 0 or len(dataset.class_indices(1)) == 0:
        raise ValueError(f"{what} requires samples from both classes")


def train_classifier(dataset: Dataset, config: TrainConfig, role: str) -> ClassifierParams:
    """Fit a binary classifier with Adam; same config and seed, same parameters."""
    _require_both_classes(dataset, "train_classifier")
    params = ClassifierParams.initialize(
        dataset.image_dim, stream(config.seed, PARAM_INIT), role
    )
    optimizer = Adam(params.parameters(), config.lr)
    targets = _label_column(dataset.labels)
    for epoch in range(config.epochs):
        for idx in _epoch_batches(len(dataset), config.batch_size, stream(config.seed, SHUFFLE, epoch)):
            scores = classify(dataset.images[idx], params)
            loss = ad.bce(scores, targets[idx])
            optimizer.zero_grad()
            ad.backward(loss)
            optimizer.step()
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


def train_vae(
    dataset: Dataset,
    config: TrainConfig,
    recon_classifier: ClassifierParams | None = None,
) -> VaeParams:
    """Fit the VAE with Adam.

    With ``recon_classifier`` set, the objective also pushes decoded
    reconstructions toward their true class under that (frozen)
    classifier, weighted by ``config.recon_class_weight``; the classifier
    parameters receive gradients but are never updated here.
    """
    if recon_classifier is not None:
        if config.recon_class_weight <= 0:
            raise ValueError(
                "recon_class_weight must be positive when a reconstruction "
                "classifier is supplied"
            )
        if recon_classifier.image_dim != dataset.image_dim:
            raise ShapeMismatchError(
                f"classifier expects {recon_classifier.image_dim} pixels, "
                f"dataset has {dataset.image_dim}"
            )
    vae = VaeParams.initialize(
        dataset.image_dim, config.latent_dim, stream(config.seed, PARAM_INIT)
    )
    frozen = recon_classifier.parameters() if recon_classifier is not None else []
    optimizer = Adam(vae.parameters(), config.lr)
    for epoch in range(config.epochs):
        noise_rng = stream(config.seed, LATENT_NOISE, epoch)
        for idx in _epoch_batches(len(dataset), config.batch_size, stream(config.seed, SHUFFLE, epoch)):
            loss = vae_batch_loss(
                vae, dataset.images[idx], dataset.labels[idx], config, noise_rng, recon_classifier
            )
            optimizer.zero_grad()
            ad.zero_grad(frozen)
            ad.backward(loss)
            optimizer.step()
    return vae


def encode_mean(x: np.ndarray, vae: VaeParams) -> np.ndarray:
    """Deterministic encoding: the mean head only, as a plain array."""
    mu, _ = encode(x, vae)
    return mu.data


def dataset_vae_loss(
    dataset: Dataset, vae: VaeParams, config: TrainConfig, noise: np.ndarray
) -> float:
    """Full-dataset objective under a fixed noise draw, for progress checks."""
    xt = Tensor(dataset.images)
    mu, log_var = encode(xt, vae)
    z = mu + ad.exp(log_var * 0.5) * Tensor(noise)
    x_hat = decode(z, vae)
    return float(vae_loss(dataset.images, x_hat, mu, log_var, config.kl_weight).data)
