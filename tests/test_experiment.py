import dataclasses

import numpy as np
import pytest

from latentpoison import evaluation
from latentpoison.attack import learn_attack_protocol
from latentpoison.checkpoint import load_checkpoint
from latentpoison.config import ConfigError
from latentpoison.experiment import (
    MODES,
    ExperimentError,
    ExperimentPlan,
    grid_plans,
    make_dataset,
    run_experiment,
)
from latentpoison.models import encode_mean
from latentpoison.reporting import parse_report


def _tiny_plan(out_dir, **overrides):
    plan = ExperimentPlan(
        sample_count=60,
        width=8,
        height=8,
        test_count=20,
        vae_epochs=2,
        attack_epochs=2,
        latent_dim=4,
        batch_size=16,
        seed=3,
        data_seed=3,
        out_dir=str(out_dir),
    )
    return dataclasses.replace(plan, **overrides)


class TestPlan:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ExperimentPlan(mode="backdoor")

    @pytest.mark.parametrize("overrides, error", [
        ({"sample_count": 61}, "count must be positive and even, got 61"),
        ({"width": 7}, "width and height must be at least 8, got 7x8"),
        ({"test_count": 60}, "test_count must be in (0, 60), got 60"),
        ({"sample_count": 4, "test_count": 3},
         "cannot keep class 0 non-empty on both sides: 2 samples, test quota 2"),
        ({"mode": "poisoning+class", "recon_class_weight": 0.0},
         "poisoning+class needs recon_class_weight > 0, got 0.0"),
    ], ids=["odd-count", "narrow", "split-all", "split-class", "class-weight"])
    def test_data_and_class_weight_rules_reject_the_plan(self, tmp_path, overrides, error):
        # the rules of the stages, checked where the plan is built
        with pytest.raises(ValueError) as exc:
            _tiny_plan(tmp_path, **overrides)
        assert str(exc.value) == error

    def test_an_out_dir_its_report_would_misread_rejects_the_plan(self, tmp_path):
        out_dir = str(tmp_path / "a\nb")  # the line break would end its config line early
        with pytest.raises(ConfigError) as exc:
            _tiny_plan(out_dir)
        assert str(exc.value) == ("config key 'out_dir': a string may hold only printable "
                                  f"characters and no leading or trailing whitespace, got {out_dir!r}")

    def test_grid_covers_modes_and_norms(self, tmp_path):
        plans = grid_plans(tmp_path)
        assert len(plans) == 6
        combos = {(p.mode, p.norm_order, p.family) for p in plans}
        assert len(combos) == 6
        assert all(p.family == "additive" for p in plans)
        assert len({p.out_dir for p in plans}) == 6

    def test_grid_with_multiplicative_family(self, tmp_path):
        plans = grid_plans(tmp_path, include_multiplicative=True)
        assert len(plans) == 12
        assert sum(p.family == "multiplicative" for p in plans) == 6

    @pytest.mark.parametrize("mode", ["independent", "poisoning"])
    def test_class_weight_changes_nothing_outside_class_mode(self, tmp_path, mode):
        outputs = []
        for weight in (0.0, 1.0):
            plan = _tiny_plan(tmp_path, mode=mode, recon_class_weight=weight)
            train_set, _ = make_dataset(plan)
            vae, _, pert = learn_attack_protocol(
                mode, train_set, plan.vae_config(), plan.attack_config()
            )
            outputs.append([p.data.tobytes() for p in vae.parameters()] + [pert.delta.tobytes()])
        assert outputs[0] == outputs[1]


class TestRunExperiment:
    def test_zero_training_degenerate_path(self, tmp_path):
        # an untrained classifier emits a random but input-insensitive
        # score, so confidences sit in a loose band around one half and
        # the zero perturbation leaves attacked rows equal to the source
        # class's reconstruction rows under the flipped label
        plan = _tiny_plan(tmp_path / "zero", vae_epochs=0, attack_epochs=0)
        report = run_experiment(plan)
        for row in report.rows:
            assert 0.2 <= row.mean <= 0.8
        assert report.row("attacked_0to1").mean == pytest.approx(
            1.0 - report.row("reconstruction_class0").mean, abs=1e-12
        )
        assert report.row("attacked_1to0").mean == pytest.approx(
            1.0 - report.row("reconstruction_class1").mean, abs=1e-12
        )
        assert report.sparsity_fraction == 1.0  # delta stayed all zeros
        assert (tmp_path / "zero" / "report.csv").exists()

    def test_outputs_written_and_parseable(self, tmp_path):
        plan = _tiny_plan(tmp_path / "run", mode="poisoning+class")
        report = run_experiment(plan)
        out = tmp_path / "run"
        expected = [
            "vae.ckpt", "eval_classifier.ckpt", "attack_classifier.ckpt",
            "perturbation.ckpt", "report.csv", "delta_elements.csv",
            "recon_class0.pgm", "recon_class1.pgm",
            "attacked_0to1.pgm", "attacked_1to0.pgm",
            "diff_0to1.pgm", "diff_1to0.pgm",
        ]
        for name in expected:
            assert (out / name).exists(), name
        meta, rows = parse_report((out / "report.csv").read_text())
        assert meta["mode"] == "poisoning+class"
        assert meta["config.sample_count"] == "60"
        assert len(rows) == 6
        assert [r.mean for r in rows] == [r.mean for r in report.rows]

    def test_each_test_class_is_encoded_once(self, tmp_path, monkeypatch):
        # the report's views are scored and drawn, so no test row is encoded twice
        encoded = []

        def counting(x, vae):
            encoded.append(len(x))
            return encode_mean(x, vae)

        monkeypatch.setattr(evaluation, "encode_mean", counting)
        plan = _tiny_plan(tmp_path / "run")
        report = run_experiment(plan)
        _, test_set = make_dataset(plan)
        assert sorted(encoded) == sorted(len(test_set.class_indices(c)) for c in (0, 1))
        assert report.views == {}  # drawn by then, so a caller holding reports holds no pixels

    def test_stage_error_names_stage(self, tmp_path):
        (tmp_path / "file").write_text("")
        plan = _tiny_plan(tmp_path / "file" / "plan")  # the outputs cannot be written under a file
        with pytest.raises(ExperimentError, match="stage 'write-outputs'"):
            run_experiment(plan)

    @pytest.mark.parametrize("mode", MODES)
    def test_diverging_loss_names_stage_epoch_and_batch(self, tmp_path, mode):
        # the eval classifier trains first; its first step at this lr saturates
        # every prediction of the second batch, some on the wrong side
        plan = _tiny_plan(tmp_path, mode=mode, lr=1e10)
        message = (r"^stage 'train-eval-classifier' failed: saturated classifier at epoch 1, "
                   r"batch 2 of 3: every prediction is clamped and \d+ of 16 are wrong, "
                   r"so the gradient is zero$")
        with np.errstate(all="ignore"), pytest.raises(ExperimentError, match=message):
            run_experiment(plan)


class TestClassifierSeedRule:
    """Each classifier role has one seed rule, whichever mode trains it."""

    @pytest.fixture(scope="class")
    @staticmethod
    def plan_dirs(tmp_path_factory):
        root = tmp_path_factory.mktemp("modes")
        dirs = {}
        for mode in MODES:
            plan = _tiny_plan(root / mode.replace("+", "_"), mode=mode)
            run_experiment(plan)
            dirs[mode] = root / mode.replace("+", "_")
        return dirs

    @staticmethod
    def _parameters(path):
        classifier, _ = load_checkpoint(path, expect_kind="classifier")
        return [p.data for p in classifier.parameters()]

    def _assert_bitwise_equal(self, a, b):
        first, second = self._parameters(a), self._parameters(b)
        assert len(first) == len(second)
        for x, y in zip(first, second):
            assert x.shape == y.shape
            assert x.tobytes() == y.tobytes()

    def test_attack_classifier_same_in_independent_and_class_modes(self, plan_dirs):
        self._assert_bitwise_equal(
            plan_dirs["independent"] / "attack_classifier.ckpt",
            plan_dirs["poisoning+class"] / "attack_classifier.ckpt",
        )

    def test_eval_classifier_same_in_every_mode(self, plan_dirs):
        for mode in MODES[1:]:
            self._assert_bitwise_equal(
                plan_dirs[MODES[0]] / "eval_classifier.ckpt",
                plan_dirs[mode] / "eval_classifier.ckpt",
            )

    def test_roles_do_not_share_weights(self, plan_dirs):
        attack = self._parameters(plan_dirs["independent"] / "attack_classifier.ckpt")
        evaluation = self._parameters(plan_dirs["independent"] / "eval_classifier.ckpt")
        assert not np.array_equal(attack[0], evaluation[0])
