import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentpoison import attack
from latentpoison import autodiff as ad
from latentpoison.attack import (
    VECTOR_NAMES,
    AttackConfig,
    Perturbation,
    _attack_batch_loss,
    _init_deltas,
    _latent_means,
    attack_loss,
    learn_attack_independent,
    learn_attack_protocol,
    tamper,
)
from latentpoison.autodiff import ShapeMismatchError, Tensor
from latentpoison.models import (
    ClassifierParams,
    TrainConfig,
    VaeParams,
    _classifier_config,
    _epoch_batches,
    classify,
    decode,
    encode,
    train_classifier,
    train_vae,
    vae_batch_loss,
)
from latentpoison.seeds import LATENT_NOISE, PARAM_INIT, SHUFFLE, stream
from gradcheck import grad_check
from reduction import total

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
    # label 0 codes move "0to1" (+delta), label 1 codes move "1to0" (-delta)
    def test_zero_delta_is_identity(self):
        z = np.array([[0.3, -0.7]])
        out = tamper(z, [0], [np.zeros(2)], "additive")
        np.testing.assert_array_equal(out.data, z)

    def test_directions(self):
        z = np.array([[0.0, 0.0]])
        delta = np.array([1.0, -1.0])
        np.testing.assert_array_equal(tamper(z, [0], [delta], "additive").data, [[1.0, -1.0]])
        np.testing.assert_array_equal(tamper(z, [1], [delta], "additive").data, [[-1.0, 1.0]])

    def test_inverse_pair_bitwise_on_lattice(self):
        rng = np.random.default_rng(0)
        z = (rng.integers(-(2**28), 2**28, size=(1000, 8)) * LATTICE)
        delta = rng.integers(-(2**28), 2**28, size=8) * LATTICE
        forward = tamper(z, np.zeros(1000), [delta], "additive")
        back = tamper(forward, np.ones(1000), [delta], "additive")
        assert np.array_equal(back.data, z)

    @given(lattice_vectors)
    @settings(max_examples=50)
    def test_inverse_property(self, vec):
        delta = np.linspace(-1, 1, vec.size) * 0.5  # multiples of small dyadics
        delta = np.round(delta / LATTICE) * LATTICE
        z = vec.reshape(1, -1)
        roundtrip = tamper(tamper(z, [0], [delta], "additive"), [1], [delta], "additive")
        assert np.array_equal(roundtrip.data, z)

    def test_raw_doubles_round_trip_within_one_ulp_of_sum(self):
        # off the lattice each of the two roundings loses at most half an
        # ulp at the intermediate magnitude
        rng = np.random.default_rng(1)
        z = rng.standard_normal((500, 8))
        delta = rng.standard_normal(8)
        forward = tamper(z, np.zeros(500), [delta], "additive").data
        roundtrip = tamper(forward, np.ones(500), [delta], "additive").data
        bound = np.spacing(np.maximum(np.abs(z), np.abs(forward)))
        assert np.all(np.abs(roundtrip - z) <= bound)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="latent width 3 vs perturbation width 4"):
            tamper(np.zeros((2, 3)), [0, 0], [np.zeros(4)], "additive")

    def test_tensor_path_gradients(self):
        z = Tensor(np.zeros((3, 2)))
        delta = Tensor(np.array([1.0, 2.0]))
        ad.backward(total(tamper(z, np.ones(3), [delta], "additive")), [delta])
        np.testing.assert_array_equal(delta.grad, [-3.0, -3.0])

    @pytest.mark.parametrize("apply", [
        lambda z, d: tamper(z, np.zeros(len(z)), [d], "additive"),
        lambda z, d: tamper(z, np.zeros(len(z)), [d], "multiplicative"),
    ])
    def test_array_codes_with_tensor_delta(self, apply):
        delta = Tensor(np.array([1.0, 2.0]))
        out = apply(np.ones((3, 2)), delta)
        assert isinstance(out, Tensor) and out.data.shape == (3, 2)
        ad.backward(total(out), [delta])
        np.testing.assert_array_equal(delta.grad, [3.0, 3.0])


class TestMultiplicativeTransform:
    def test_zero_delta_is_identity_bitwise(self):
        z = np.random.default_rng(2).standard_normal((100, 5))
        assert np.array_equal(tamper(z, np.zeros(100), [np.zeros(5)], "multiplicative").data, z)

    def test_sign_flip(self):
        out = tamper(np.array([[2.0]]), [0], [np.array([-2.0])], "multiplicative")
        np.testing.assert_array_equal(out.data, [[-2.0]])

    def test_coordinate_zeroing(self):
        out = tamper(np.array([[1.0, 1.0]]), [0], [np.array([-1.0, 0.0])], "multiplicative")
        np.testing.assert_array_equal(out.data, [[0.0, 1.0]])

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="latent width 3 vs perturbation width 2"):
            tamper(np.zeros((1, 3)), [0], [np.zeros(2)], "multiplicative")


def _tamper_cases():
    """Codes, mixed labels and two vectors, plus each case's formula in plain numpy."""
    rng = np.random.default_rng(21)
    codes, delta, reverse = rng.normal(size=(7, 5)), rng.normal(size=5), rng.normal(size=5)
    labels = np.array([0, 1, 1, 0, 1, 0, 0])
    sign = (1.0 - 2.0 * labels).reshape(-1, 1)
    up = (labels == 0).astype(np.float64).reshape(-1, 1)
    down = (labels == 1).astype(np.float64).reshape(-1, 1)
    return codes, labels, {
        "additive": ([delta], "additive", codes + sign * delta),
        "per-direction": ([delta, reverse], "additive", (codes + up * delta) - down * reverse),
        "multiplicative": ([delta], "multiplicative", codes * (delta + 1.0)),
    }


CASES = ("additive", "per-direction", "multiplicative")


class TestTamperRule:
    """``tamper`` is exactly the formula of each case, forward and backward."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("as_tensors", [False, True], ids=["arrays", "tensors"])
    def test_bytes_equal_the_formula(self, case, as_tensors):
        codes, labels, cases = _tamper_cases()
        vectors, family, expected = cases[case]
        if as_tensors:
            codes, vectors = Tensor(codes), [Tensor(v) for v in vectors]
        out = tamper(codes, labels, vectors, family)
        assert isinstance(out, Tensor)
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_gradients_equal_the_formula_graph(self, case):
        codes, labels, cases = _tamper_cases()
        arrays, family, _ = cases[case]
        weights = np.random.default_rng(22).normal(size=codes.shape)
        sign = Tensor((1.0 - 2.0 * labels).reshape(-1, 1))
        up = Tensor((labels == 0).astype(np.float64).reshape(-1, 1))
        down = Tensor((labels == 1).astype(np.float64).reshape(-1, 1))
        formulas = {
            "additive": lambda z, v: z + sign * v[0],
            "per-direction": lambda z, v: z + up * v[0] + -1.0 * (down * v[1]),
            "multiplicative": lambda z, v: z * (v[0] + 1.0),
        }
        grads = []
        for build in (lambda z, v: tamper(z, labels, v, family), formulas[case]):
            vectors = [Tensor(v.copy()) for v in arrays]
            ad.backward(total(build(Tensor(codes), vectors) * weights), vectors)
            grads.append([v.grad.tobytes() for v in vectors])
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("norm_order", [1, 2], ids=["L1", "L2"])
    @pytest.mark.parametrize("case", CASES)
    def test_attack_objective_matches_finite_differences(self, case, norm_order):
        # the training objective itself, through tamper, decoder and classifier; a small
        # reg weight keeps the penalty's gradient from swamping the networks' part
        family = "multiplicative" if case == "multiplicative" else "additive"
        config = AttackConfig(norm_order=norm_order, family=family,
                              per_direction=case == "per-direction", reg_weight=0.001)

        def build(rng):
            vae = VaeParams.initialize(64, 8, rng, hidden=(16, 12))
            clf = ClassifierParams.initialize(64, rng, role="attack", hidden=(12, 8))
            codes = rng.standard_normal((6, 8))
            vectors = [Tensor(rng.normal(0.0, 0.5, 8), name=name)
                       for name in VECTOR_NAMES[: 2 if config.per_direction else 1]]
            labels = np.array([0, 1, 1, 0, 1, 0])
            return (lambda: _attack_batch_loss(vae, clf, codes, labels, vectors, config)), vectors

        assert grad_check(build, seed=31, fd_step=1e-5) < 1e-4

    def test_second_vector_width_checked(self):
        with pytest.raises(ShapeMismatchError, match="width"):
            tamper(np.zeros((2, 3)), [0, 1], [np.zeros(3), np.zeros(2)], "additive")


class TestAttackLoss:
    def test_perfect_flip_without_penalty(self):
        labels = np.array([0, 1, 0])
        scores = Tensor(np.array([[1 - 1e-7], [1e-7], [1 - 1e-7]]))
        delta = Tensor(np.array([5.0, 5.0]))
        loss = attack_loss(scores, labels, [delta], norm_order=2, reg_weight=0.0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_euclidean_penalty_contribution(self):
        labels = np.array([0])
        scores = Tensor(np.array([[1 - 1e-7]]))  # BCE term ~ 0
        delta = Tensor(np.array([3.0, -4.0]))
        loss = attack_loss(scores, labels, [delta], norm_order=2, reg_weight=1.0)
        assert float(loss.data) == pytest.approx(5.0, abs=1e-6)

    def test_l1_penalty_contribution(self):
        labels = np.array([0])
        scores = Tensor(np.array([[1 - 1e-7]]))
        delta = Tensor(np.array([3.0, -4.0]))
        loss = attack_loss(scores, labels, [delta], norm_order=1, reg_weight=1.0)
        assert float(loss.data) == pytest.approx(7.0, abs=1e-6)

    @pytest.mark.parametrize("norm_order", [1, 2])
    def test_per_direction_penalises_each_vector_bitwise(self, norm_order):
        labels = np.array([0, 1, 1])
        scores = Tensor(np.array([[0.8], [0.3], [0.6]]))
        v0, v1 = Tensor(np.array([0.5, -1.5])), Tensor(np.array([2.0, 0.25]))
        w = 0.37
        loss = attack_loss(scores, labels, [v0, v1], norm_order, w)
        expected = (ad.bce(scores, 1.0 - labels.reshape(-1, 1).astype(np.float64))
                    + w * ad.lp_penalty(v0, norm_order) + w * ad.lp_penalty(v1, norm_order))
        assert loss.data.tobytes() == expected.data.tobytes()


class TestPerturbationType:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Perturbation(np.array([np.inf]), 2, "additive", 0.01, "independent")

    def test_empty_delta_rejected(self):
        with pytest.raises(ValueError, match="^latent_dim must be at least 1, got 0$"):
            Perturbation(np.zeros(0), 2, "additive", 0.01, "independent")

    def test_reverse_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            Perturbation(np.zeros(3), 2, "additive", 0.01, "independent",
                         delta_reverse=np.zeros(2))

    def test_multiplicative_reverse_vector_rejected(self):
        with pytest.raises(ValueError) as exc:
            Perturbation(np.zeros(3), 2, "multiplicative", 0.01, "independent",
                         delta_reverse=np.zeros(3))
        assert str(exc.value) == ("per_direction needs the additive family: "
                                  "a multiplicative perturbation has one vector")

    def test_apply_uses_reverse_vector_when_present(self):
        pert = Perturbation(np.array([1.0]), 2, "additive", 0.0, "independent",
                            delta_reverse=np.array([10.0]))
        z = np.array([[0.0]])
        for label, expected in ((0, [[1.0]]), (1, [[-10.0]])):
            tampered = tamper(z, np.array([label]), pert.vectors, pert.family)
            np.testing.assert_array_equal(tampered.data, expected)


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

    def test_multiplicative_per_direction_rejected(self):
        # tamper reads one multiplicative vector, so a second would train unused
        with pytest.raises(ValueError) as exc:
            AttackConfig(family="multiplicative", per_direction=True)
        assert str(exc.value) == ("per_direction needs the additive family: "
                                  "a multiplicative perturbation has one vector")


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

    def test_image_width_mismatch_names_the_roles(self, tiny_vae, tiny_classifiers, monkeypatch):
        from latentpoison.data import generate_synthetic

        attack_clf, _ = tiny_classifiers
        monkeypatch.setattr(attack, "_latent_means", _no_encoding)
        with pytest.raises(ShapeMismatchError) as exc:
            learn_attack_independent(tiny_vae, attack_clf, generate_synthetic(10, 9, 8, seed=0),
                                     AttackConfig(epochs=1))
        assert str(exc.value) == "image widths disagree: vae 64, classifier 64, dataset 72"

    @pytest.mark.parametrize("per_direction", [False, True])
    def test_one_class_rejected_before_encoding(
        self, tiny_vae, tiny_classifiers, tiny_data, monkeypatch, per_direction
    ):
        # without class-1 rows a per-direction run has nothing to learn its reverse vector from
        from latentpoison.data import Dataset

        attack_clf, _ = tiny_classifiers
        rows = tiny_data.class_indices(0)
        single = Dataset(tiny_data.images[rows], tiny_data.labels[rows], 8, 8)
        monkeypatch.setattr(attack, "_latent_means", _no_encoding)
        with pytest.raises(ValueError, match="^learn_attack_frozen requires samples from both"):
            learn_attack_independent(tiny_vae, attack_clf, single,
                                     AttackConfig(epochs=1, per_direction=per_direction))

    def test_eval_classifier_rejected(self, tiny_vae, tiny_classifiers, tiny_data):
        _, eval_clf = tiny_classifiers
        with pytest.raises(ValueError, match="attack classifier, got role 'eval'"):
            learn_attack_independent(tiny_vae, eval_clf, tiny_data, AttackConfig(epochs=1))

    def test_final_objective_no_worse_than_zero_start(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, _ = tiny_classifiers
        config = AttackConfig(epochs=15, lr=0.02, seed=3)
        pert = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)

        def objective(delta_values):
            mu, _ = encode(tiny_data.images, tiny_vae)
            sign = (1.0 - 2.0 * tiny_data.labels).reshape(-1, 1)
            tampered = mu.data + sign * delta_values
            scores = classify(decode(tampered, tiny_vae).data, attack_clf)
            loss = attack_loss(scores, tiny_data.labels, [Tensor(delta_values)],
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

    @pytest.mark.parametrize("family", ["additive", "multiplicative"])
    def test_pruned_delta_gradient_is_bitwise_the_full_one(
        self, tiny_vae, tiny_classifiers, tiny_data, family
    ):
        attack_clf, _ = tiny_classifiers
        # a multiplicative perturbation has one vector
        config = AttackConfig(family=family, per_direction=family == "additive")
        rng = np.random.default_rng(4)
        vectors = [Tensor(rng.standard_normal(tiny_vae.latent_dim))
                   for _ in range(2 if config.per_direction else 1)]
        frozen = tiny_vae.parameters() + attack_clf.parameters()
        codes = encode(tiny_data.images, tiny_vae)[0].data

        def delta_grads(wrt):
            loss = _attack_batch_loss(tiny_vae, attack_clf, codes, tiny_data.labels, vectors, config)
            ad.backward(loss, wrt)
            return [vector.grad.copy() for vector in vectors]

        before = [p.grad for p in frozen]
        pruned = delta_grads(vectors)
        assert all(p.grad is g for p, g in zip(frozen, before))
        full = delta_grads(vectors + frozen)
        # the codes are cached means, so the whole encoder stays off the path
        assert [p.name for p in frozen if p.grad is None] == [
            f"{layer}.{kind}" for layer in ("enc0", "enc1", "mu", "log_var")
            for kind in ("weight", "bias")
        ]
        for a, b in zip(pruned, full):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("batch_size", [2, 3, 16, 64])
    def test_cached_codes_bitwise_equal_per_batch_encoding(self, tiny_vae, tiny_data, batch_size):
        codes = _latent_means(tiny_vae, tiny_data.images, batch_size)
        assert codes.shape == (len(tiny_data), tiny_vae.latent_dim)
        for epoch in range(2):
            shuffle = stream(5, SHUFFLE, epoch)
            for idx in _epoch_batches(len(tiny_data), batch_size, shuffle):
                rows = encode(tiny_data.images[idx], tiny_vae)[0].data
                assert codes[idx].tobytes() == rows.tobytes()

    @pytest.mark.parametrize("options", [
        {"family": "additive"},
        {"family": "additive", "per_direction": True},
        {"family": "multiplicative", "random_init": True},
    ], ids=["additive", "additive-per-direction", "multiplicative"])
    def test_delta_matches_per_batch_encoding_loop(
        self, tiny_vae, tiny_classifiers, tiny_data, options
    ):
        attack_clf, _ = tiny_classifiers
        config = AttackConfig(epochs=3, batch_size=16, seed=12, **options)
        # reference: the frozen encoder re-run on every batch
        vectors = _init_deltas(tiny_vae.latent_dim, config)
        optimizer = ad.Adam(vectors, config.lr)
        for epoch in range(config.epochs):
            for idx in _epoch_batches(len(tiny_data), config.batch_size,
                                      stream(config.seed, SHUFFLE, epoch)):
                codes = encode(tiny_data.images[idx], tiny_vae)[0].data
                loss = _attack_batch_loss(tiny_vae, attack_clf, codes, tiny_data.labels[idx],
                                          vectors, config)
                ad.backward(loss, vectors)
                optimizer.step()
        pert = learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
        assert pert.delta.tobytes() == vectors[0].data.tobytes()
        if len(vectors) == 1:
            assert pert.delta_reverse is None
        else:
            assert pert.delta_reverse.tobytes() == vectors[1].data.tobytes()


    def test_mixed_configs_equal_separate_runs(
        self, tiny_vae, tiny_classifiers, tiny_data, monkeypatch
    ):
        attack_clf, _ = tiny_classifiers
        configs = [
            AttackConfig(epochs=3, batch_size=16, seed=3),
            AttackConfig(epochs=2, batch_size=16, seed=3, per_direction=True),
            AttackConfig(epochs=1, batch_size=16, seed=3, norm_order=1),
            AttackConfig(epochs=2, batch_size=16, seed=3, family="multiplicative",
                         random_init=True),
        ]
        alone = [learn_attack_independent(tiny_vae, attack_clf, tiny_data, c) for c in configs]
        encoded = []
        original = attack._latent_means
        monkeypatch.setattr(attack, "_latent_means", lambda vae, images, chunk: (
            encoded.append(chunk), original(vae, images, chunk))[1])
        together = attack.learn_attack_frozen(tiny_vae, attack_clf, tiny_data, *configs)
        # one encoding for the one (seed, batch_size) every config shares
        assert encoded == [16]
        for config, pert, single in zip(configs, together, alone):
            assert [v.tobytes() for v in pert.vectors] == [v.tobytes() for v in single.vectors]
            assert (pert.family, pert.norm_order, pert.provenance) == (
                config.family, config.norm_order, "independent")

    def test_configs_of_two_batch_orders_rejected(
        self, tiny_vae, tiny_classifiers, tiny_data, monkeypatch
    ):
        attack_clf, _ = tiny_classifiers
        monkeypatch.setattr(attack, "_latent_means", _no_encoding)
        configs = [AttackConfig(batch_size=16, seed=3),
                   AttackConfig(batch_size=16, seed=3, norm_order=1),
                   AttackConfig(batch_size=7, seed=8)]
        message = "configs must share one (seed, batch_size), got (3, 16) and (8, 7)"
        with pytest.raises(ValueError, match=re.escape(message)):
            attack.learn_attack_frozen(tiny_vae, attack_clf, tiny_data, *configs)
        assert attack.learn_attack_frozen(tiny_vae, attack_clf, tiny_data) == []


def _no_encoding(*args):
    raise AssertionError("a rejected attack must not encode")


class TestPoisoningAttacks:
    def test_zero_attack_epochs_decouples(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=2)
        attack_config = AttackConfig(epochs=0, batch_size=16, seed=2)
        vae, _, pert = learn_attack_protocol("poisoning", tiny_data, vae_config, attack_config)
        np.testing.assert_array_equal(pert.delta, 0.0)
        untrained = train_vae(tiny_data, dataclasses.replace(vae_config, epochs=0))
        changed = any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(vae.parameters(), untrained.parameters())
        )
        assert changed

    @pytest.mark.parametrize("vae_epochs, attack_epochs", [(2, 2), (1, 3), (3, 1)])
    def test_poisoning_vae_matches_standalone_training(
        self, tiny_data, tiny_config, vae_epochs, attack_epochs
    ):
        # perturbation steps must not influence the autoencoder trajectory,
        # also in epochs where only one of the two steps is still live
        vae_config = dataclasses.replace(tiny_config, epochs=vae_epochs)
        attack_config = AttackConfig(epochs=attack_epochs, batch_size=16, seed=0)
        joint_vae, _, _ = learn_attack_protocol("poisoning", tiny_data, vae_config, attack_config)
        plain_vae = train_vae(tiny_data, vae_config)
        for a, b in zip(joint_vae.parameters(), plain_vae.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("vae_epochs, attack_epochs", [(2, 2), (1, 3), (3, 1)])
    def test_delta_matches_alternating_reference_loop(
        self, tiny_data, tiny_config, vae_epochs, attack_epochs
    ):
        vae_config = dataclasses.replace(tiny_config, epochs=vae_epochs)
        config = AttackConfig(epochs=attack_epochs, batch_size=16, seed=3, per_direction=True)
        # reference: per batch, a VAE step, then a perturbation step on the updated VAE
        classifier = train_classifier(tiny_data, _classifier_config(vae_config, "attack"), "attack")
        vae = VaeParams.initialize(tiny_data.image_dim, vae_config.latent_dim,
                                   stream(vae_config.seed, PARAM_INIT))
        vae_optimizer = ad.Adam(vae.parameters(), vae_config.lr)
        vectors = _init_deltas(vae.latent_dim, config)
        optimizer = ad.Adam(vectors, config.lr)
        for epoch in range(max(vae_epochs, attack_epochs)):
            noise = stream(vae_config.seed, LATENT_NOISE, epoch)
            for idx in _epoch_batches(len(tiny_data), vae_config.batch_size,
                                      stream(vae_config.seed, SHUFFLE, epoch)):
                x, y = tiny_data.images[idx], tiny_data.labels[idx]
                if epoch < vae_epochs:
                    ad.backward(vae_batch_loss(vae, x, y, vae_config, noise), vae.parameters())
                    vae_optimizer.step()
                if epoch < attack_epochs:
                    codes = encode(x, vae)[0].data
                    loss = _attack_batch_loss(vae, classifier, codes, y, vectors, config)
                    ad.backward(loss, vectors)
                    optimizer.step()
        _, _, pert = learn_attack_protocol("poisoning", tiny_data, vae_config, config)
        assert pert.delta.tobytes() == vectors[0].data.tobytes()
        assert pert.delta_reverse.tobytes() == vectors[1].data.tobytes()

    def test_same_seed_reproducible(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=2)
        attack_config = AttackConfig(epochs=2, batch_size=16, seed=4)
        vae_a, _, pert_a = learn_attack_protocol("poisoning", tiny_data, vae_config, attack_config)
        vae_b, _, pert_b = learn_attack_protocol("poisoning", tiny_data, vae_config, attack_config)
        np.testing.assert_array_equal(pert_a.delta, pert_b.delta)
        for a, b in zip(vae_a.parameters(), vae_b.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_provenance_tags(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=1, recon_class_weight=1.0)
        attack_config = AttackConfig(epochs=1, batch_size=16, seed=6)
        _, classifier, pert = learn_attack_protocol(
            "poisoning", tiny_data, tiny_config, attack_config
        )
        assert pert.provenance == "poisoning"
        assert classifier is None  # its VAE never sees one
        _, _, pert = learn_attack_protocol("poisoning+class", tiny_data, vae_config, attack_config)
        assert pert.provenance == "poisoning+class"

    def test_returned_networks_hold_no_gradients(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=1, recon_class_weight=1.0)
        vae, classifier, _ = learn_attack_protocol(
            "poisoning+class", tiny_data, vae_config, AttackConfig(epochs=1, batch_size=16, seed=6)
        )
        assert all(p.grad is None for p in vae.parameters() + classifier.parameters())

    def test_class_mode_requires_positive_weight(self, tiny_data, tiny_config, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("the weight check must come before any training")

        monkeypatch.setattr(attack, "train_classifier", no_training)
        message = r"^poisoning\+class needs recon_class_weight > 0, got 0\.0$"
        with pytest.raises(ValueError, match=message):
            learn_attack_protocol(
                "poisoning+class", tiny_data, tiny_config, AttackConfig(epochs=1)
            )

    @pytest.mark.parametrize("mode", ["poisoning", "poisoning+class"])
    def test_batch_size_must_match_the_vae(self, tiny_data, tiny_config, mode, monkeypatch):
        # the attack steps run on the VAE's batches, so another size would be ignored
        def no_training(*args, **kwargs):
            raise AssertionError("the batch-size check must come before any training")

        monkeypatch.setattr(attack, "train_classifier", no_training)
        vae_config = dataclasses.replace(tiny_config, recon_class_weight=1.0)
        configs = [AttackConfig(epochs=1, batch_size=16), AttackConfig(epochs=1, batch_size=8)]
        message = (f"{mode} attacks run on the VAE's batches: "
                   "attack batch_size 8 differs from the VAE's 16")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            learn_attack_protocol(mode, tiny_data, vae_config, *configs)

    def test_class_mode_changes_vae(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=2, recon_class_weight=1.0)
        attack_config = AttackConfig(epochs=1, batch_size=16, seed=8)
        plain, _, _ = learn_attack_protocol("poisoning", tiny_data, vae_config, attack_config)
        boosted, _, _ = learn_attack_protocol(
            "poisoning+class", tiny_data, vae_config, attack_config
        )
        assert any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(plain.parameters(), boosted.parameters())
        )


class TestLearnAttackProtocol:
    def test_unknown_mode_rejected(self, tiny_data, tiny_config):
        with pytest.raises(ValueError, match="mode must be one of"):
            learn_attack_protocol("backdoor", tiny_data, tiny_config, AttackConfig(epochs=1))

    def test_independent_batch_order_checked_before_training(self, tiny_data, monkeypatch):
        # learn_attack_frozen's rule, checked before the classifier and the VAE train
        def no_training(*args, **kwargs):
            raise AssertionError("the batch-order check must come before any training")

        monkeypatch.setattr(attack, "train_classifier", no_training)
        vae_config = TrainConfig(epochs=2, batch_size=16, latent_dim=4)
        configs = [AttackConfig(epochs=1, batch_size=16, seed=1),
                   AttackConfig(epochs=1, batch_size=16, seed=2)]
        message = "configs must share one (seed, batch_size), got (1, 16) and (2, 16)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            learn_attack_protocol("independent", tiny_data, vae_config, *configs)

    def test_independent_is_its_three_stages(self, tiny_data, tiny_config):
        vae_config = dataclasses.replace(tiny_config, epochs=2)
        attack_config = AttackConfig(epochs=2, seed=5, per_direction=True)
        vae, classifier, pert = learn_attack_protocol(
            "independent", tiny_data, vae_config, attack_config
        )
        plain_vae = train_vae(tiny_data, vae_config)
        plain_classifier = train_classifier(
            tiny_data, _classifier_config(vae_config, "attack"), "attack"
        )
        plain_pert = learn_attack_independent(plain_vae, plain_classifier, tiny_data, attack_config)
        for a, b in zip(vae.parameters() + classifier.parameters(),
                        plain_vae.parameters() + plain_classifier.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        assert pert.delta.tobytes() == plain_pert.delta.tobytes()
        assert pert.delta_reverse.tobytes() == plain_pert.delta_reverse.tobytes()
        assert pert.provenance == "independent"

    @pytest.mark.parametrize("mode", ["independent", "poisoning", "poisoning+class"])
    def test_several_configs_equal_separate_runs(self, tiny_data, tiny_config, mode):
        # one classifier and one VAE trajectory serve every config of a sweep
        vae_config = dataclasses.replace(tiny_config, epochs=2, recon_class_weight=1.0)
        configs = [
            AttackConfig(epochs=2, batch_size=16, seed=3, reg_weight=0.001),
            AttackConfig(epochs=2, batch_size=16, seed=3, reg_weight=0.1, per_direction=True),
            AttackConfig(epochs=2, batch_size=16, seed=3, reg_weight=1.0),
        ]
        vae, classifier, *perts = learn_attack_protocol(mode, tiny_data, vae_config, *configs)
        assert len(perts) == len(configs)
        for config, pert in zip(configs, perts):
            alone_vae, alone_classifier, alone = learn_attack_protocol(
                mode, tiny_data, vae_config, config
            )
            pairs = [(vae, alone_vae)]
            if mode == "poisoning":
                assert classifier is None and alone_classifier is None
            else:
                pairs.append((classifier, alone_classifier))
            for net, alone_net in pairs:
                for a, b in zip(net.parameters(), alone_net.parameters()):
                    assert a.data.tobytes() == b.data.tobytes()
            assert pert.delta.tobytes() == alone.delta.tobytes()
            if config.per_direction:
                assert pert.delta_reverse.tobytes() == alone.delta_reverse.tobytes()
            else:
                assert pert.delta_reverse is None and alone.delta_reverse is None
            assert (pert.reg_weight, pert.provenance) == (config.reg_weight, mode)

    def test_sweep_encodes_each_batch_once(self, tiny_config, monkeypatch):
        from latentpoison.data import generate_synthetic

        data = generate_synthetic(64, 8, 8, seed=3)
        encoded = []
        original = attack.encode_mean

        def counted(x, vae):
            encoded.append(len(x))
            return original(x, vae)

        monkeypatch.setattr(attack, "encode_mean", counted)
        runs = []  # the number of steps of each _train call the attack makes
        train = attack._train
        monkeypatch.setattr(attack, "_train", lambda n, batch_size, seed, steps: (
            runs.append(len(steps)), train(n, batch_size, seed, steps)))
        vae_config = dataclasses.replace(tiny_config, epochs=1, batch_size=16)
        configs = [AttackConfig(epochs=1, batch_size=16, reg_weight=weight)
                   for weight in (0.001, 0.01, 0.1, 1.0)]
        for mode, steps in (("poisoning", 5), ("independent", 4)):
            encoded.clear()
            runs.clear()
            learn_attack_protocol(mode, data, vae_config, *configs)
            # four batches, each encoded once for all four perturbation steps:
            # after each VAE step when poisoning, once up front when independent
            assert encoded == [16, 16, 16, 16], mode
            # one run for every perturbation, led by the VAE's step when poisoning
            assert runs == [steps], mode


def test_multiplicative_all_nonnegative_warns(tiny_vae, tiny_classifiers, tiny_data):
    attack_clf, _ = tiny_classifiers
    config = AttackConfig(epochs=0, family="multiplicative", seed=9)
    with pytest.warns(UserWarning, match="no latent sign can flip"):
        learn_attack_independent(tiny_vae, attack_clf, tiny_data, config)
