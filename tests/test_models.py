import dataclasses

import numpy as np
import pytest

from latentpoison import autodiff as ad
from latentpoison.autodiff import ShapeMismatchError, Tensor
from latentpoison.data import generate_synthetic
from latentpoison.models import (
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
    vae_batch_loss,
    vae_loss,
)
from latentpoison.seeds import stream
from reduction import total


def _zeroed_heads_vae(image_dim=16, latent_dim=3):
    vae = VaeParams.initialize(image_dim, latent_dim, np.random.default_rng(0), hidden=(8,))
    for head in (vae.mu_head, vae.log_var_head):
        for tensor in head:
            tensor.data[...] = 0.0
    return vae


def _zeroed_vae(image_dim=16, latent_dim=3):
    vae = _zeroed_heads_vae(image_dim, latent_dim)
    for w, b in vae.decoder_layers:
        w.data[...] = 0.0
        b.data[...] = 0.0
    return vae


class TestForwardPasses:
    def test_zero_heads_give_zero_latents(self):
        vae = _zeroed_heads_vae()
        mu, log_var = encode(np.random.default_rng(1).uniform(0, 1, (4, 16)), vae)
        np.testing.assert_array_equal(mu.data, 0.0)
        np.testing.assert_array_equal(log_var.data, 0.0)

    def test_encode_deterministic(self):
        vae = VaeParams.initialize(16, 3, np.random.default_rng(2), hidden=(8,))
        x = np.random.default_rng(3).uniform(0, 1, (5, 16))
        a, _ = encode(x, vae)
        b, _ = encode(x, vae)
        np.testing.assert_array_equal(a.data, b.data)

    def test_encode_mean_is_the_mean_head_alone(self):
        vae = VaeParams.initialize(16, 3, np.random.default_rng(2), hidden=(8,))
        x = np.random.default_rng(3).uniform(0, 1, (5, 16))
        mu, _ = encode(x, vae)
        vae.log_var_head = None  # never read on the way to the mean
        assert encode_mean(x, vae).tobytes() == mu.data.tobytes()

    def test_encode_width_mismatch(self):
        vae = VaeParams.initialize(16, 3, np.random.default_rng(0), hidden=(8,))
        with pytest.raises(ShapeMismatchError, match="encode"):
            encode(np.zeros((2, 9)), vae)

    def test_zero_decoder_outputs_half(self):
        vae = _zeroed_vae()
        out = decode(np.random.default_rng(0).standard_normal((3, 3)), vae)
        np.testing.assert_array_equal(out.data, 0.5)

    def test_decode_stays_in_unit_interval(self):
        vae = VaeParams.initialize(16, 3, np.random.default_rng(4), hidden=(8,))
        out = decode(np.random.default_rng(5).standard_normal((10, 3)) * 20, vae).data
        assert np.all((out > 0) & (out < 1))

    def test_decode_width_mismatch(self):
        vae = VaeParams.initialize(16, 3, np.random.default_rng(0), hidden=(8,))
        with pytest.raises(ShapeMismatchError, match="decode"):
            decode(np.zeros((2, 4)), vae)

    def test_zero_classifier_scores_half(self):
        clf = ClassifierParams.initialize(16, np.random.default_rng(0), role="eval", hidden=(8,))
        for w, b in clf.layers:
            w.data[...] = 0.0
            b.data[...] = 0.0
        out = classify(np.random.default_rng(1).uniform(0, 1, (6, 16)), clf)
        np.testing.assert_array_equal(out.data, 0.5)

    def test_classifier_width_mismatch(self):
        clf = ClassifierParams.initialize(16, np.random.default_rng(0), role="eval", hidden=(8,))
        with pytest.raises(ShapeMismatchError, match="classify"):
            classify(np.zeros((2, 7)), clf)

    def test_classifier_output_shape(self):
        clf = ClassifierParams.initialize(16, np.random.default_rng(0), role="attack", hidden=(8,))
        assert classify(np.zeros((5, 16)), clf).data.shape == (5, 1)


class TestSampleLatent:
    def test_tiny_variance_collapses_to_mean(self):
        mu = Tensor(np.array([[0.3, -0.7]]))
        log_var = Tensor(np.full((1, 2), -50.0))
        z = sample_latent(mu, log_var, np.random.default_rng(0))
        np.testing.assert_allclose(z.data, mu.data, atol=1e-10)

    def test_standard_normal_statistics(self):
        mu = Tensor(np.zeros((100_000, 1)))
        log_var = Tensor(np.zeros((100_000, 1)))
        z = sample_latent(mu, log_var, np.random.default_rng(8)).data
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    def test_fixed_seed_reproducible(self):
        mu = Tensor(np.zeros((4, 3)))
        log_var = Tensor(np.zeros((4, 3)))
        a = sample_latent(mu, log_var, np.random.default_rng(42)).data
        b = sample_latent(mu, log_var, np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)

    def test_gradients_reach_mu_and_log_var(self):
        mu = Tensor(np.zeros((2, 2)))
        log_var = Tensor(np.zeros((2, 2)))
        ad.backward(total(sample_latent(mu, log_var, np.random.default_rng(0))), [mu, log_var])
        assert mu.grad is not None and log_var.grad is not None


class TestVaeLoss:
    def test_zero_weight_reduces_to_reconstruction(self):
        x = np.random.default_rng(0).uniform(0.1, 0.9, (3, 4))
        x_hat = Tensor(np.random.default_rng(1).uniform(0.1, 0.9, (3, 4)))
        mu, lv = Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2)))
        assert vae_loss(x, x_hat, mu, lv, 0.0).data == ad.bce(x_hat, x).data

    def test_zero_kl_for_any_weight(self):
        x = np.random.default_rng(0).uniform(0.1, 0.9, (3, 4))
        x_hat = Tensor(np.random.default_rng(1).uniform(0.1, 0.9, (3, 4)))
        mu, lv = Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2)))
        for weight in (0.1, 1.0, 7.0):
            assert vae_loss(x, x_hat, mu, lv, weight).data == ad.bce(x_hat, x).data

    def test_composition_of_closed_forms(self):
        x = np.ones((1, 1))
        x_hat = Tensor([[1.0 - 1e-7]])
        mu, lv = Tensor([[1.0]]), Tensor([[0.0]])
        assert vae_loss(x, x_hat, mu, lv, 0.1).data == pytest.approx(0.05, abs=1e-6)


class TestTrainClassifier:
    def test_separable_data_reaches_low_loss(self, tiny_data):
        config = TrainConfig(epochs=20, batch_size=16, lr=2e-3, seed=5)
        params = train_classifier(tiny_data, config, role="attack")
        final = float(
            ad.bce(classify(tiny_data.images, params), tiny_data.labels.reshape(-1, 1)).data
        )
        assert final < 0.1

    def test_zero_epochs_returns_initialization(self, tiny_data):
        config = TrainConfig(epochs=0, seed=9)
        params = train_classifier(tiny_data, config, role="eval")
        fresh = ClassifierParams.initialize(
            tiny_data.image_dim, stream(9, 1), role="eval"
        )
        for trained, init in zip(params.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(trained.data, init.data)

    def test_same_seed_bitwise_identical(self, tiny_data):
        config = TrainConfig(epochs=3, batch_size=16, seed=21)
        a = train_classifier(tiny_data, config, role="eval")
        b = train_classifier(tiny_data, config, role="eval")
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_single_class_rejected(self, tiny_data):
        from latentpoison.data import Dataset

        single = Dataset(
            tiny_data.images[tiny_data.labels == 0],
            tiny_data.labels[tiny_data.labels == 0],
            tiny_data.width,
            tiny_data.height,
        )
        with pytest.raises(ValueError, match="both classes"):
            train_classifier(single, TrainConfig(epochs=1), role="attack")

    def test_role_recorded(self, tiny_data):
        config = TrainConfig(epochs=0)
        assert train_classifier(tiny_data, config, role="eval").role == "eval"

    def test_trained_accuracy_on_held_out_data(self):
        data = generate_synthetic(600, 12, 12, seed=31)
        from latentpoison.data import split

        train_set, test_set = split(data, 100, seed=31)
        config = TrainConfig(epochs=25, batch_size=32, lr=1e-3, seed=8)
        params = train_classifier(train_set, config, role="eval")
        scores = classify(test_set.images, params).data[:, 0]
        accuracy = ((scores > 0.5).astype(int) == test_set.labels).mean()
        assert accuracy >= 0.95

    def test_saturated_run_names_epoch_and_batch(self):
        # one step at this lr clamps every prediction of the next batch, some
        # wrongly; the loss stays finite but its gradient is zero from there on
        data = generate_synthetic(64, 8, 8, seed=1)
        config = TrainConfig(epochs=3, batch_size=16, lr=1e10)
        message = (r"^saturated classifier at epoch 1, batch 2 of 4: every prediction is "
                   r"clamped and \d+ of 16 are wrong, so the gradient is zero$")
        with pytest.raises(ValueError, match=message):
            train_classifier(data, config, role="eval")


def test_trained_networks_hold_no_gradients(tiny_data):
    config = TrainConfig(epochs=1, batch_size=16, latent_dim=4, seed=13)
    vae = train_vae(tiny_data, config)
    classifier = train_classifier(tiny_data, config, role="attack")
    assert all(p.grad is None for p in vae.parameters() + classifier.parameters())


class TestTrainVae:
    def test_without_classifier_loss_is_plain_objective(self, tiny_data):
        config = TrainConfig(epochs=1, latent_dim=4, seed=3)
        vae = VaeParams.initialize(tiny_data.image_dim, 4, stream(3, 1))
        x, y = tiny_data.images[:8], tiny_data.labels[:8]
        noise_a = stream(3, 99, 0)
        noise_b = stream(3, 99, 0)
        with_term = vae_batch_loss(vae, x, y, config, noise_a, recon_classifier=None)
        mu, lv = encode(Tensor(x), vae)
        z = sample_latent(mu, lv, noise_b)
        plain = vae_loss(x, decode(z, vae), mu, lv, config.kl_weight)
        assert with_term.data == plain.data

    def test_classifier_without_weight_rejected(self, tiny_data, tiny_classifiers):
        attack_clf, _ = tiny_classifiers
        config = TrainConfig(epochs=1, recon_class_weight=0.0)
        with pytest.raises(ValueError, match="recon_class_weight"):
            train_vae(tiny_data, config, recon_classifier=attack_clf)

    def test_eval_classifier_rejected(self, tiny_data, tiny_classifiers):
        _, eval_clf = tiny_classifiers
        config = TrainConfig(epochs=1, recon_class_weight=1.0)
        with pytest.raises(ValueError, match="attack classifier, got role 'eval'"):
            train_vae(tiny_data, config, recon_classifier=eval_clf)

    def test_classifier_width_mismatch_rejected(self, tiny_data):
        clf = ClassifierParams.initialize(100, np.random.default_rng(0), role="attack")
        config = TrainConfig(epochs=1, recon_class_weight=1.0)
        with pytest.raises(ShapeMismatchError):
            train_vae(tiny_data, config, recon_classifier=clf)

    def test_classifier_width_mismatch_names_the_roles(self, tiny_data):
        clf = ClassifierParams.initialize(100, np.random.default_rng(0), role="attack")
        config = TrainConfig(epochs=1, recon_class_weight=1.0)
        with pytest.raises(ShapeMismatchError) as exc:
            train_vae(tiny_data, config, recon_classifier=clf)
        assert str(exc.value) == "image widths disagree: classifier 100, dataset 64"

    def test_same_seed_bitwise_identical(self, tiny_data):
        config = TrainConfig(epochs=2, batch_size=16, latent_dim=4, seed=13)
        a = train_vae(tiny_data, config)
        b = train_vae(tiny_data, config)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_diverging_loss_names_epoch_and_batch(self, tiny_data, monkeypatch):
        config = TrainConfig(epochs=3, batch_size=16, latent_dim=4, lr=1e10, seed=1)
        differentiated = []  # every loss backward was given
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda loss, params: (
            differentiated.append(loss.data.item()), backward(loss, params)))
        message = r"^non-finite loss nan at epoch 1, batch 2 of 4$"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            train_vae(tiny_data, config)
        # the first step threw the weights out; the second batch's loss stops the run
        assert len(differentiated) == 1 and np.isfinite(differentiated[0])

    def test_objective_non_increasing_over_epochs(self, tiny_data):
        # same seed means longer runs share the shorter runs' trajectory,
        # so the per-epoch losses can be read off checkpoints at k epochs
        # (each scored on the full set under the same noise draw)
        losses = []
        for epochs in range(1, 6):
            config = TrainConfig(epochs=epochs, batch_size=16, latent_dim=4, lr=1e-3, seed=2)
            vae = train_vae(tiny_data, config)
            loss = vae_batch_loss(
                vae, tiny_data.images, tiny_data.labels, config, np.random.default_rng(0)
            )
            losses.append(float(loss.data))
        for before, after in zip(losses, losses[1:]):
            assert after <= before * 1.05

    def test_reconstruction_improves_over_untrained(self):
        # soft pixel targets put an entropy floor under BCE (predicting x
        # itself still costs ~0.4 here), so improvement is measured on the
        # reducible excess above that floor
        data = generate_synthetic(400, 12, 12, seed=31)
        config = TrainConfig(epochs=40, batch_size=32, latent_dim=8, lr=1e-3, seed=4)
        trained = train_vae(data, config)
        untrained = train_vae(data, dataclasses.replace(config, epochs=0))

        def recon_bce(vae):
            mu, _ = encode(data.images, vae)
            return float(ad.bce(decode(mu.data, vae), data.images).data)

        x = np.clip(data.images, 1e-7, 1 - 1e-7)
        floor = float(-(data.images * np.log(x) + (1 - data.images) * np.log1p(-x)).mean())
        excess_trained = recon_bce(trained) - floor
        excess_untrained = recon_bce(untrained) - floor
        assert excess_trained < 0.5 * excess_untrained


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"kl_weight": -0.1},
            {"recon_class_weight": -1.0},
            {"lr": 0.0},
            {"batch_size": 0},
            {"latent_dim": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field", ["batch_size", "latent_dim"])
    def test_size_rule_names_its_field_and_value(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
            TrainConfig(**{field: 0})
