import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latentpoison import evaluation
from latentpoison.attack import (
    DIRECTIONS,
    AttackConfig,
    Perturbation,
    learn_attack_independent,
    tamper,
)
from latentpoison.autodiff import ShapeMismatchError
from latentpoison.data import Dataset, generate_synthetic
from latentpoison.evaluation import (
    PRIOR_INTERVAL_HALFWIDTH,
    ConfidenceRow,
    confidence,
    confidence_table,
    decoded_view,
    detection_probability,
    epsilon_gap,
    evaluate_attack,
    sparsity_fraction,
    unit_range,
)
from latentpoison.models import ClassifierParams, VaeParams, decode, encode_mean

unit_scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _zero_perturbation(latent_dim):
    return Perturbation(np.zeros(latent_dim), 2, "additive", 0.01, "independent")


def _views(vae, perturbation, data):
    return {d: decoded_view(vae, perturbation, data, d) for d in DIRECTIONS}


def _perturbation(latent_dim, family, per_direction):
    rng = np.random.default_rng(9)
    delta, reverse = (rng.normal(0.0, 0.5, latent_dim) for _ in range(2))
    return Perturbation(delta, 2, family, 0.01, "independent",
                        delta_reverse=reverse if per_direction else None)


VIEW_CASES = pytest.mark.parametrize("family, per_direction", [
    ("additive", False), ("additive", True), ("multiplicative", False),
], ids=["additive", "additive-per-direction", "multiplicative"])


class TestConfidence:
    def test_definition(self):
        assert confidence(0.9, 1) == 0.9
        assert confidence(0.2, 0) == pytest.approx(0.8)
        assert confidence(0.5, 0) == confidence(0.5, 1) == 0.5

    def test_vectorized(self):
        out = confidence(np.array([0.9, 0.2]), np.array([1, 0]))
        np.testing.assert_allclose(out, [0.9, 0.8])

    @given(unit_scores)
    def test_complement_property(self, score):
        assert confidence(score, 0) + confidence(score, 1) == pytest.approx(1.0)


class TestConfidenceTable:
    def test_identity_perturbation_mirrors_reconstruction_rows(
        self, tiny_vae, tiny_classifiers, tiny_data
    ):
        _, eval_clf = tiny_classifiers
        rows = confidence_table(_views(tiny_vae, _zero_perturbation(tiny_vae.latent_dim),
                                       tiny_data), eval_clf)
        by_name = {r.name: r for r in rows}
        # with delta 0 the attacked groups are the other class's
        # reconstructions scored against the flipped label
        assert by_name["attacked_0to1"].mean == pytest.approx(
            1.0 - by_name["reconstruction_class0"].mean, abs=1e-12
        )
        assert by_name["attacked_1to0"].mean == pytest.approx(
            1.0 - by_name["reconstruction_class1"].mean, abs=1e-12
        )

    def test_row_order_and_bounds(self, tiny_vae, tiny_classifiers, tiny_data):
        _, eval_clf = tiny_classifiers
        rows = confidence_table(_views(tiny_vae, _zero_perturbation(tiny_vae.latent_dim),
                                       tiny_data), eval_clf)
        assert [r.name for r in rows] == [
            "original_class1", "reconstruction_class1", "attacked_0to1",
            "original_class0", "reconstruction_class0", "attacked_1to0",
        ]
        for row in rows:
            assert 0.0 <= row.mean <= 1.0
            assert row.sd >= 0.0

    def test_requires_eval_role(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, _ = tiny_classifiers
        with pytest.raises(ValueError, match="eval"):
            evaluate_attack(tiny_vae, _zero_perturbation(tiny_vae.latent_dim),
                            attack_clf, tiny_data)

    def test_empty_class_rejected(self, tiny_vae, tiny_classifiers, tiny_data):
        from latentpoison.data import Dataset

        _, eval_clf = tiny_classifiers
        single = Dataset(
            tiny_data.images[tiny_data.labels == 1],
            tiny_data.labels[tiny_data.labels == 1],
            tiny_data.width,
            tiny_data.height,
        )
        with pytest.raises(ValueError, match="both classes"):
            evaluate_attack(tiny_vae, _zero_perturbation(tiny_vae.latent_dim),
                            eval_clf, single)

    def test_deterministic(self, tiny_vae, tiny_classifiers, tiny_data):
        _, eval_clf = tiny_classifiers
        pert = _zero_perturbation(tiny_vae.latent_dim)
        a = confidence_table(_views(tiny_vae, pert, tiny_data), eval_clf)
        b = confidence_table(_views(tiny_vae, pert, tiny_data), eval_clf)
        assert [(r.name, r.mean, r.sd) for r in a] == [(r.name, r.mean, r.sd) for r in b]


class TestEpsilonGap:
    def _rows(self, recon1, attacked01, recon0, attacked10):
        return [
            ConfidenceRow("original_class1", 0.9, 0.0),
            ConfidenceRow("reconstruction_class1", recon1, 0.0),
            ConfidenceRow("attacked_0to1", attacked01, 0.0),
            ConfidenceRow("original_class0", 0.9, 0.0),
            ConfidenceRow("reconstruction_class0", recon0, 0.0),
            ConfidenceRow("attacked_1to0", attacked10, 0.0),
        ]

    def test_perfect_stealth_is_zero(self):
        plus, minus = epsilon_gap(self._rows(0.9, 0.9, 0.8, 0.8))
        assert plus == 0.0 and minus == 0.0

    def test_signed_arithmetic(self):
        plus, minus = epsilon_gap(self._rows(0.88, 0.98, 0.95, 0.91))
        assert plus == pytest.approx(-0.10)
        assert minus == pytest.approx(0.04)


class TestDetectionProbability:
    def test_printed_reference_values(self):
        assert detection_probability(1.0) == pytest.approx(0.04, abs=0.01)
        assert detection_probability(2.0) == pytest.approx(0.2, abs=0.01)
        assert detection_probability(5.0) == pytest.approx(0.98, abs=0.01)

    def test_unshifted_element_tail_mass(self):
        assert detection_probability(0.0) == pytest.approx(0.005, abs=5e-4)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(123)
        draws = rng.standard_normal(1_000_000)
        for shift in (0.0, 0.5, 1.0, 2.0, 5.0):
            shifted = draws + shift
            outside = np.abs(shifted) > PRIOR_INTERVAL_HALFWIDTH
            estimate = outside.mean()
            se = math.sqrt(max(estimate * (1 - estimate), 1e-12) / draws.size)
            assert abs(detection_probability(shift) - estimate) <= 3 * se + 1e-9

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_symmetry(self, shift):
        assert detection_probability(shift) == pytest.approx(
            detection_probability(-shift), abs=1e-12
        )

    @given(st.floats(min_value=0, max_value=9.9, allow_nan=False),
           st.floats(min_value=1e-6, max_value=2.0, allow_nan=False))
    def test_monotone_in_magnitude(self, shift, bump):
        assert detection_probability(shift + bump) > detection_probability(shift) - 1e-15

    def test_bounded(self):
        for shift in (-50, -5, 0, 5, 50):
            assert 0.0 <= detection_probability(shift) <= 1.0


class TestSparsityProfile:
    def test_counting(self):
        assert sparsity_fraction(np.array([0.0, 0.0, 5.0, 0.0])) == 0.75

    def test_uniform_vector_has_no_sparse_entries(self):
        assert sparsity_fraction(np.full(8, 3.3)) == 0.0

    def test_zero_vector_is_fully_sparse(self):
        assert sparsity_fraction(np.zeros(5)) == 1.0

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=32))
    def test_matches_bruteforce_count(self, values):
        arr = np.array(values)
        fraction = sparsity_fraction(arr)
        largest = max(abs(v) for v in values)
        if largest == 0:
            assert fraction == 1.0
        else:
            expected = sum(1 for v in values if abs(v) < 0.05 * largest) / len(values)
            assert fraction == pytest.approx(expected)


class TestPixelDiff:
    """The pixel change plans render: a direction's attacked decodes minus its reconstructions."""

    @staticmethod
    def _diff(vae, pert, data, direction):
        _, recon, attacked = decoded_view(vae, pert, data, direction)
        return attacked - recon

    def test_zero_perturbation_zero_difference(self, tiny_vae, tiny_data):
        raw = self._diff(tiny_vae, _zero_perturbation(tiny_vae.latent_dim), tiny_data, "0to1")
        np.testing.assert_array_equal(raw, 0.0)
        np.testing.assert_array_equal(unit_range(raw), 0.5)

    def test_nonzero_perturbation_moves_pixels(self, tiny_vae, tiny_data):
        pert = Perturbation(np.full(tiny_vae.latent_dim, 0.5), 2, "additive", 0.0, "independent")
        raw = self._diff(tiny_vae, pert, tiny_data, "1to0")
        scaled = unit_range(raw)
        assert np.abs(raw).mean() > 0.0
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_direction_selects_source_class(self, tiny_vae, tiny_data):
        pert = _zero_perturbation(tiny_vae.latent_dim)
        raw0 = self._diff(tiny_vae, pert, tiny_data, "0to1")
        raw1 = self._diff(tiny_vae, pert, tiny_data, "1to0")
        assert raw0.shape[0] == len(tiny_data.class_indices(0))
        assert raw1.shape[0] == len(tiny_data.class_indices(1))


class TestDecodedView:
    @VIEW_CASES
    def test_attacked_decodes_equal_the_reference_transform(
        self, tiny_vae, tiny_data, family, per_direction
    ):
        rng = np.random.default_rng(9)
        delta, reverse = (rng.normal(0.0, 0.5, tiny_vae.latent_dim) for _ in range(2))
        pert = Perturbation(delta, 2, family, 0.01, "independent",
                            delta_reverse=reverse if per_direction else None)
        for direction, label in (("0to1", 0), ("1to0", 1)):
            z = encode_mean(tiny_data.images[tiny_data.class_indices(label)], tiny_vae)
            vector = reverse if per_direction and direction == "1to0" else delta
            reference = tamper(z, np.full(len(z), label), [vector], family)
            _, _, attacked = decoded_view(tiny_vae, pert, tiny_data, direction)
            assert attacked.tobytes() == decode(reference, tiny_vae).data.tobytes()

    @VIEW_CASES
    def test_report_views_are_bitwise_the_decoded_views(
        self, tiny_vae, tiny_classifiers, tiny_data, family, per_direction
    ):
        _, eval_clf = tiny_classifiers
        pert = _perturbation(tiny_vae.latent_dim, family, per_direction)
        report = evaluate_attack(tiny_vae, pert, eval_clf, tiny_data)
        assert list(report.views) == list(DIRECTIONS)
        for direction in DIRECTIONS:
            view = decoded_view(tiny_vae, pert, tiny_data, direction)
            assert [a.tobytes() for a in report.views[direction]] == [a.tobytes() for a in view]

    def test_unknown_direction_rejected(self, tiny_vae, tiny_data):
        pert = _zero_perturbation(tiny_vae.latent_dim)
        with pytest.raises(ValueError, match="'sideways'"):
            decoded_view(tiny_vae, pert, tiny_data, "sideways")


class TestEvaluateAttack:
    def test_zero_latent_width_rejected_at_construction(self, monkeypatch):
        # a width-0 VAE and perturbation once reached the report and failed there with
        # "max() arg is an empty sequence", naming no field
        monkeypatch.setattr(evaluation, "evaluate_attack", lambda *args: pytest.fail("evaluated"))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^latent_dim must be at least 1, got 0$"):
            evaluation.evaluate_attack(
                VaeParams.initialize(64, 0, rng),
                Perturbation(np.zeros(0), 2, "additive", 0.01, "independent"),
                ClassifierParams.initialize(64, rng, role="eval"),
                generate_synthetic(20, 8, 8, seed=2),
            )

    def test_report_assembly(self, tiny_vae, tiny_classifiers, tiny_data):
        attack_clf, eval_clf = tiny_classifiers
        pert = learn_attack_independent(
            tiny_vae, attack_clf, tiny_data, AttackConfig(epochs=2, seed=5)
        )
        report = evaluate_attack(tiny_vae, pert, eval_clf, tiny_data)
        assert report.mode == "independent"
        assert len(report.rows) == 6
        assert report.detection_max == max(
            detection_probability(v) for v in np.concatenate(pert.vectors))
        assert 0.0 <= report.sparsity_fraction <= 1.0
        assert -1.0 <= report.epsilon_plus <= 1.0
        assert -1.0 <= report.epsilon_minus <= 1.0
        assert report.config == {}  # the artifact writer sets the echo
        assert report.row("original_class1").name == "original_class1"
        with pytest.raises(KeyError):
            report.row("nonexistent")

    def test_per_direction_report_covers_both_vectors(self, tiny_vae, tiny_classifiers, tiny_data):
        # a faint shared vector and a strong 1-to-0 one: the strong one sets
        # the maximum, and the faint one's elements count as inactive
        _, eval_clf = tiny_classifiers
        dim = tiny_vae.latent_dim
        pert = Perturbation(np.full(dim, 0.002), 2, "additive", 0.01, "independent",
                            delta_reverse=np.full(dim, 0.1))
        report = evaluate_attack(tiny_vae, pert, eval_clf, tiny_data)
        assert report.detection_max == max(
            detection_probability(v) for v in np.concatenate(pert.vectors))
        assert report.detection_max == detection_probability(0.1)
        assert report.sparsity_fraction == 0.5

    def test_views_are_left_out_of_repr_and_equality(self, tiny_vae, tiny_classifiers, tiny_data):
        _, eval_clf = tiny_classifiers
        report = evaluate_attack(tiny_vae, _zero_perturbation(tiny_vae.latent_dim), eval_clf,
                                 tiny_data)
        assert "views" not in repr(report)
        assert report == dataclasses.replace(report, views={})

    @pytest.fixture
    def no_encoding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rejected evaluation must not encode")

        monkeypatch.setattr(evaluation, "encode_mean", refuse)

    def test_one_class_rejected_before_encoding(self, tiny_vae, tiny_classifiers, tiny_data,
                                                no_encoding):
        _, eval_clf = tiny_classifiers
        rows = tiny_data.class_indices(0)
        single = Dataset(tiny_data.images[rows], tiny_data.labels[rows], 8, 8)
        with pytest.raises(ValueError) as exc:
            evaluate_attack(tiny_vae, _zero_perturbation(tiny_vae.latent_dim), eval_clf, single)
        assert str(exc.value) == "the evaluation test set requires samples from both classes"

    @pytest.mark.parametrize("case", ["latent", "image"])
    def test_width_mismatch_rejected_before_encoding(self, tiny_vae, tiny_classifiers, tiny_data,
                                                     no_encoding, case):
        _, eval_clf = tiny_classifiers
        if case == "latent":
            pert, data = _zero_perturbation(4), tiny_data
            expected = "latent widths disagree: vae 6, perturbation 4"
        else:
            pert, data = _zero_perturbation(6), generate_synthetic(10, 9, 8, seed=0)
            expected = "image widths disagree: vae 64, classifier 64, dataset 72"
        with pytest.raises(ShapeMismatchError) as exc:
            evaluate_attack(tiny_vae, pert, eval_clf, data)
        assert str(exc.value) == expected

    def test_attack_classifier_rejected_before_encoding(self, tiny_vae, tiny_classifiers,
                                                        tiny_data, no_encoding):
        attack_clf, _ = tiny_classifiers
        with pytest.raises(ValueError) as exc:
            evaluate_attack(tiny_vae, _zero_perturbation(tiny_vae.latent_dim), attack_clf,
                            tiny_data)
        assert str(exc.value) == ("confidence tables must use the eval classifier, "
                                  "got role 'attack'")
