import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentpoison import autodiff as ad
from latentpoison.attack import (
    AttackConfig,
    Perturbation,
    apply_additive,
    apply_multiplicative,
    apply_perturbation,
    attack_loss,
    learn_attack_independent,
    learn_attack_poisoning,
    learn_attack_poisoning_class,
)
from latentpoison.autodiff import ShapeMismatchError, Tensor
from latentpoison.models import classify, decode, encode, train_vae

# Vectors drawn on a bounded power-of-two lattice: on that grid float
# addition is exact, which is what makes the transform pair exactly
# inverse. Raw doubles round, so the bitwise property only holds here.
LATTICE = 2.0**-26
lattice_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 16),
    elements=st.integers(-(2**28), 2**28).map(lambda n: n * LATTICE),
)


class TestAdditiveTransform:
    def test_zero_delta_is_identity(self):
        z = np.array([[0.3, -0.7]])
        out = apply_additive(z, np.zeros(2), "0to1")
        np.testing.assert_array_equal(out, z)

    def test_directions(self):
        z = np.array([[0.0, 0.0]])
        delta = np.array([1.0, -1.0])
        np.testing.assert_array_equal(apply_additive(z, delta, "0to1"), [[1.0, -1.0]])
        np.testing.assert_array_equal(apply_additive(z, delta, "1to0"), [[-1.0, 1.0]])

    def test_inverse_pair_bitwise_on_lattice(self):
        rng = np.random.default_rng(0)
        z = (rng.integers(-(2**28), 2**28, size=(1000, 8)) * LATTICE)
        delta = rng.integers(-(2**28), 2**28, size=8) * LATTICE
        forward = apply_additive(z, delta, "0to1")
        back = apply_additive(forward, delta, "1to0")
        assert np.array_equal(back, z)

    @given(lattice_vectors)
    @settings(max_examples=50)
    def test_inverse_property(self, vec):
        delta = np.linspace(-1, 1, vec.size) * 0.5  # multiples of small dyadics
        delta = np.round(delta / LATTICE) * LATTICE
        roundtrip = apply_additive(apply_additive(vec, delta, "0to1"), delta, "1to0")
        assert np.array_equal(roundtrip, vec)

    def test_raw_doubles_round_trip_within_one_ulp_of_sum(self):
        # off the lattice each of the two roundings loses at most half an
        # ulp at the intermediate magnitude
        rng = np.random.default_rng(1)
        z = rng.standard_normal((500, 8))
        delta = rng.standard_normal(8)
        forward = apply_additive(z, delta, "0to1")
        roundtrip = apply_additive(forward, delta, "1to0")
        bound = np.spacing(np.maximum(np.abs(z), np.abs(forward)))
        assert np.all(np.abs(roundtrip - z) <= bound)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="width"):
            apply_additive(np.zeros((2, 3)), np.zeros(4), "0to1")

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            apply_additive(np.zeros((1, 2)), np.zeros(2), "up")

    def test_tensor_path_gradients(self):
        z = Tensor(np.zeros((3, 2)))
        delta = Tensor(np.array([1.0, 2.0]))
        ad.backward(apply_additive(z, delta, "1to0").sum())
        np.testing.assert_array_equal(delta.grad, [-3.0, -3.0])

    @pytest.mark.parametrize("apply", [
        lambda z, d: apply_additive(z, d, "0to1"),
        lambda z, d: apply_multiplicative(z, d),
    ])
    def test_array_codes_with_tensor_delta(self, apply):
        delta = Tensor(np.array([1.0, 2.0]))
        out = apply(np.ones((3, 2)), delta)
        assert isinstance(out, Tensor) and out.data.shape == (3, 2)
        ad.backward(out.sum())
        np.testing.assert_array_equal(delta.grad, [3.0, 3.0])


class TestMultiplicativeTransform:
    def test_zero_delta_is_identity_bitwise(self):
        z = np.random.default_rng(2).standard_normal((100, 5))
        assert np.array_equal(apply_multiplicative(z, np.zeros(5)), z)

    def test_sign_flip(self):
        np.testing.assert_array_equal(apply_multiplicative(np.array([[2.0]]), np.array([-2.0])), [[-2.0]])

    def test_coordinate_zeroing(self):
        out = apply_multiplicative(np.array([[1.0, 1.0]]), np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            apply_multiplicative(np.zeros((1, 3)), np.zeros(2))


class TestAttackLoss:
    def test_perfect_flip_without_penalty(self):
        labels = np.array([0, 1, 0])
        scores = Tensor(np.array([[1 - 1e-7], [1e-7], [1 - 1e-7]]))
        delta = Tensor(np.array([5.0, 5.0]))
        loss = attack_loss(scores, labels, delta, norm_order=2, reg_weight=0.0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_euclidean_penalty_contribution(self):
        labels = np.array([0])
        scores = Tensor(np.array([[1 - 1e-7]]))  # BCE term ~ 0
        delta = Tensor(np.array([3.0, -4.0]))
        loss = attack_loss(scores, labels, delta, norm_order=2, reg_weight=1.0)
        assert float(loss.data) == pytest.approx(5.0, abs=1e-6)

    def test_l1_penalty_contribution(self):
        labels = np.array([0])
        scores = Tensor(np.array([[1 - 1e-7]]))
        delta = Tensor(np.array([3.0, -4.0]))
        loss = attack_loss(scores, labels, delta, norm_order=1, reg_weight=1.0)
        assert float(loss.data) == pytest.approx(7.0, abs=1e-6)


class TestPerturbationType:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Perturbation(np.array([np.inf]), 2, "additive", 0.01, "independent")

    def test_reverse_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            Perturbation(np.zeros(3), 2, "additive", 0.01, "independent",
                         delta_reverse=np.zeros(2))

    def test_apply_uses_reverse_vector_when_present(self):
        pert = Perturbation(np.array([1.0]), 2, "additive", 0.0, "independent",
                            delta_reverse=np.array([10.0]))
        z = np.array([[0.0]])
        np.testing.assert_array_equal(apply_perturbation(z, pert, "0to1"), [[1.0]])
        np.testing.assert_array_equal(apply_perturbation(z, pert, "1to0"), [[-10.0]])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"lr": 0.0},
            {"reg_weight": -0.5},
            {"norm_order": 3},
            {"family": "affine"},
            {"batch_size": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)


class TestIndependentAttack:
    def test_zero_epochs_leaves_zeros(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, _ = tiny_classifiers
        config = AttackConfig(epochs=0, seed=1)
        pert = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
        np.testing.assert_array_equal(pert.delta, 0.0)
        assert pert.provenance == "independent"

    def test_image_width_mismatch(self, tiny_vae, tiny_classifiers):
        from latentpoison.data import generate_synthetic

        attack_clf, _ = tiny_classifiers
        other = generate_synthetic(10, 10, 10, seed=0)
        with pytest.raises(ShapeMismatchError):
            learn_attack_independent(tiny_vae, attack_clf, other, AttackConfig(epochs=1))

    def test_final_objective_no_worse_than_zero_start(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, _ = tiny_classifiers
        config = AttackConfig(epochs=15, lr=0.02, seed=3)
        pert = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)

        def objective(delta_values):
            mu, _ = encode(tiny_data.images, tiny_vae)
            sign = (1.0 - 2.0 * tiny_data.labels).reshape(-1, 1)
            tampered = mu.data + sign * delta_values
            scores = classify(decode(tampered, tiny_vae).data, attack_clf)
            loss = attack_loss(scores, tiny_data.labels, Tensor(delta_values),
                               config.norm_order, config.reg_weight)
            return float(loss.data)

        assert objective(pert.delta) <= objective(np.zeros_like(pert.delta))

    def test_crushing_penalty_prevents_flip(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, _ = tiny_classifiers
        config = AttackConfig(epochs=10, lr=1e-3, reg_weight=1e3, norm_order=2, seed=5)
        pert = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
        assert np.linalg.norm(pert.delta) < 0.01
        mu, _ = encode(tiny_data.images, tiny_vae)
        sign = (1.0 - 2.0 * tiny_data.labels).reshape(-1, 1)
        scores = classify(decode(mu.data + sign * pert.delta, tiny_vae).data, attack_clf).data[:, 0]
        flipped_confidence = np.where(tiny_data.labels == 0, scores, 1.0 - scores).mean()
        assert flipped_confidence < 0.6

    def test_same_seed_reproducible(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, _ = tiny_classifiers
        config = AttackConfig(epochs=3, seed=11)
        a = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
        b = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
        np.testing.assert_array_equal(a.delta, b.delta)

    def test_per_direction_learns_two_vectors(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, _ = tiny_classifiers
        config = AttackConfig(epochs=2, seed=7, per_direction=True)
        pert = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
        assert pert.delta_reverse is not None
        assert pert.delta_reverse.shape == pert.delta.shape

    def test_random_init_differs_from_zeros(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, _ = tiny_classifiers
        config = AttackConfig(epochs=0, seed=7, random_init=True)
        pert = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
        assert np.any(pert.delta != 0.0)


class TestPoisoningAttacks:
    def test_zero_attack_epochs_decouples(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=2)
        attack_config = AttackConfig(epochs=0, seed=2)
        vae, pert = learn_attack_poisoning(tiny_data, vae_config, attack_config)
        np.testing.assert_array_equal(pert.delta, 0.0)
        untrained = train_vae(tiny_data, dataclasses.replace(vae_config, epochs=0))
        changed = any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(vae.parameters(), untrained.parameters())
        )
        assert changed

    def test_poisoning_vae_matches_standalone_training(self, tiny_data, tiny_config):
        # perturbation steps must not influence the autoencoder trajectory
        vae_config = dataclasses.replace(tiny_config, epochs=2)
        joint_vae, _ = learn_attack_poisoning(tiny_data, vae_config, AttackConfig(epochs=2, seed=0))
        plain_vae = train_vae(tiny_data, vae_config)
        for a, b in zip(joint_vae.parameters(), plain_vae.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_same_seed_reproducible(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=2)
        attack_config = AttackConfig(epochs=2, seed=4)
        vae_a, pert_a = learn_attack_poisoning(tiny_data, vae_config, attack_config)
        vae_b, pert_b = learn_attack_poisoning(tiny_data, vae_config, attack_config)
        np.testing.assert_array_equal(pert_a.delta, pert_b.delta)
        for a, b in zip(vae_a.parameters(), vae_b.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_provenance_tags(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=1, recon_class_weight=1.0)
        attack_config = AttackConfig(epochs=1, seed=6)
        _, pert = learn_attack_poisoning(tiny_data, tiny_config, attack_config)
        assert pert.provenance == "poisoning"
        _, _, pert = learn_attack_poisoning_class(tiny_data, vae_config, attack_config)
        assert pert.provenance == "poisoning+class"

    def test_class_mode_requires_positive_weight(self, tiny_data, tiny_config):
        with pytest.raises(ValueError, match="learn_attack_poisoning"):
            learn_attack_poisoning_class(tiny_data, tiny_config, AttackConfig(epochs=1))

    def test_class_mode_changes_vae(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=2, recon_class_weight=1.0)
        attack_config = AttackConfig(epochs=1, seed=8)
        plain, _ = learn_attack_poisoning(tiny_data, vae_config, attack_config)
        boosted, _, _ = learn_attack_poisoning_class(tiny_data, vae_config, attack_config)
        assert any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(plain.parameters(), boosted.parameters())
        )


def test_multiplicative_all_nonnegative_warns(tiny_vae, tiny_classifiers, tiny_data):
    attack_clf, _ = tiny_classifiers
    config = AttackConfig(epochs=0, family="multiplicative", seed=9)
    with pytest.warns(UserWarning, match="no latent sign can flip"):
        learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
