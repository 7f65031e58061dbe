import pytest

from latentpoison.checkpoint import load_checkpoint
from latentpoison.cli import _learn_attack_configs, build_parser, main
from latentpoison.config import ConfigError
from latentpoison.data import load_idx
from latentpoison.reporting import parse_report


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main([
        "gen-data", "--out-dir", str(out),
        "--count", "80", "--width", "8", "--height", "8",
        "--seed", "3", "--test-count", "20",
    ])
    assert code == 0
    return out


def _train_args(data_dir, extra):
    return [
        "--images", str(data_dir / "train-images.idx"),
        "--labels", str(data_dir / "train-labels.idx"),
        *extra,
    ]


class TestGenData:
    def test_writes_all_four_files(self, data_dir):
        for name in ("train-images.idx", "train-labels.idx", "test-images.idx", "test-labels.idx"):
            assert (data_dir / name).exists()

    def test_files_load_with_expected_sizes(self, data_dir):
        train = load_idx(data_dir / "train-images.idx", data_dir / "train-labels.idx", {1})
        test = load_idx(data_dir / "test-images.idx", data_dir / "test-labels.idx", {1})
        assert (len(train), len(test)) == (60, 20)

    def test_no_split_variant(self, tmp_path):
        code = main([
            "gen-data", "--out-dir", str(tmp_path),
            "--count", "10", "--width", "8", "--height", "8",
            "--seed", "1", "--test-count", "0",
        ])
        assert code == 0
        assert (tmp_path / "images.idx").exists()


class TestTrainingCommands:
    def test_train_classifier_and_vae(self, data_dir, tmp_path):
        clf_path = tmp_path / "clf.ckpt"
        code = main([
            "train-classifier", *_train_args(data_dir, []),
            "--out", str(clf_path), "--role", "eval",
            "--epochs", "2", "--batch-size", "16", "--latent-dim", "4", "--seed", "5",
        ])
        assert code == 0
        clf, config = load_checkpoint(clf_path, expect_kind="classifier")
        assert clf.role == "eval"
        assert config["epochs"] == 2

        vae_path = tmp_path / "vae.ckpt"
        code = main([
            "train-vae", *_train_args(data_dir, []),
            "--out", str(vae_path),
            "--epochs", "2", "--batch-size", "16", "--latent-dim", "4", "--seed", "5",
        ])
        assert code == 0
        vae, _ = load_checkpoint(vae_path, expect_kind="vae")
        assert vae.latent_dim == 4

    def test_config_file_with_flag_override(self, data_dir, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nlatent_dim = 4  # latent width\nseed = 9\n")
        out = tmp_path / "vae_cfg.ckpt"
        code = main([
            "train-vae", *_train_args(data_dir, []),
            "--config", str(config), "--out", str(out), "--epochs", "2",
        ])
        assert code == 0
        _, echoed = load_checkpoint(out)
        assert echoed["epochs"] == 2  # flag wins
        assert echoed["latent_dim"] == 4  # file value kept
        assert echoed["seed"] == 9

    def test_unknown_config_key_is_an_error(self, data_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("epoochs = 3\n")
        code = main([
            "train-vae", *_train_args(data_dir, []),
            "--config", str(config), "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        assert "unknown configuration key 'epoochs'" in capsys.readouterr().err

    def test_malformed_config_line_is_an_error(self, data_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("epochs\n")
        code = main([
            "train-vae", *_train_args(data_dir, []),
            "--config", str(config), "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        assert "key = value" in capsys.readouterr().err

    def test_duplicate_config_key_is_an_error(self, data_dir, tmp_path, capsys):
        config = tmp_path / "dup.cfg"
        config.write_text("epochs = 1\nepochs = 2\n")
        code = main([
            "train-vae", *_train_args(data_dir, []),
            "--config", str(config), "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        assert "duplicate key" in capsys.readouterr().err


class TestLearnAttackConfigMerge:
    @staticmethod
    def _configs(tmp_path, text, *flags):
        config = tmp_path / "attack.cfg"
        config.write_text(text)
        args = build_parser().parse_args([
            "learn-attack", "--mode", "poisoning", "--images", "i", "--labels", "l",
            "--out-dir", str(tmp_path), "--config", str(config), *flags,
        ])
        return _learn_attack_configs(args)

    def test_prefixed_file_keys_reach_the_vae(self, tmp_path):
        attack, vae = self._configs(tmp_path, "vae_kl_weight = 0.25\nvae_epochs = 3\nepochs = 5\n")
        assert (vae.kl_weight, vae.epochs) == (0.25, 3)
        assert attack.epochs == 5

    def test_flags_beat_the_file(self, tmp_path):
        attack, vae = self._configs(
            tmp_path, "vae_epochs = 3\nvae_latent_dim = 5\nepochs = 5\n",
            "--vae-epochs", "7", "--latent-dim", "9", "--epochs", "2",
        )
        assert (vae.epochs, vae.latent_dim, attack.epochs) == (7, 9, 2)

    def test_vae_batch_size_follows_the_attack(self, tmp_path):
        attack, vae = self._configs(tmp_path, "batch_size = 32\n")
        assert attack.batch_size == vae.batch_size == 32
        attack, vae = self._configs(tmp_path, "batch_size = 32\n", "--batch-size", "8")
        assert attack.batch_size == vae.batch_size == 8

    def test_unknown_prefixed_key_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown configuration key 'bogus'"):
            self._configs(tmp_path, "vae_bogus = 1\n")


class TestAttackAndEvaluate:
    @pytest.fixture(scope="class")
    @staticmethod
    def artifacts(data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("artifacts")
        assert main([
            "train-vae", *_train_args(data_dir, []),
            "--out", str(out / "vae.ckpt"),
            "--epochs", "3", "--batch-size", "16", "--latent-dim", "4", "--seed", "5",
        ]) == 0
        for role in ("attack", "eval"):
            assert main([
                "train-classifier", *_train_args(data_dir, []),
                "--out", str(out / f"{role}.ckpt"), "--role", role,
                "--epochs", "3", "--batch-size", "16", "--seed", "6" if role == "attack" else "7",
            ]) == 0
        assert main([
            "learn-attack", "--mode", "independent", *_train_args(data_dir, []),
            "--vae", str(out / "vae.ckpt"), "--classifier", str(out / "attack.ckpt"),
            "--out-dir", str(out), "--epochs", "3", "--seed", "8",
        ]) == 0
        return out

    def test_independent_attack_writes_perturbation(self, artifacts):
        pert, config = load_checkpoint(artifacts / "perturbation.ckpt", expect_kind="perturbation")
        assert pert.provenance == "independent"
        assert config["mode"] == "independent"

    def test_independent_requires_artifacts(self, data_dir, tmp_path, capsys):
        code = main([
            "learn-attack", "--mode", "independent", *_train_args(data_dir, []),
            "--out-dir", str(tmp_path), "--epochs", "1",
        ])
        assert code == 2
        assert "requires --vae and --classifier" in capsys.readouterr().err

    def test_poisoning_writes_vae_too(self, data_dir, tmp_path):
        code = main([
            "learn-attack", "--mode", "poisoning", *_train_args(data_dir, []),
            "--out-dir", str(tmp_path), "--epochs", "2",
            "--vae-epochs", "2", "--latent-dim", "4", "--batch-size", "16", "--seed", "4",
        ])
        assert code == 0
        assert (tmp_path / "vae.ckpt").exists()
        pert, _ = load_checkpoint(tmp_path / "perturbation.ckpt")
        assert pert.provenance == "poisoning"

    def test_sweep_writes_one_file_per_weight(self, data_dir, tmp_path, artifacts):
        code = main([
            "learn-attack", "--mode", "independent", *_train_args(data_dir, []),
            "--vae", str(artifacts / "vae.ckpt"), "--classifier", str(artifacts / "attack.ckpt"),
            "--out-dir", str(tmp_path), "--epochs", "1", "--sweep",
        ])
        assert code == 0
        for weight in ("0.001", "0.01", "0.1", "1.0"):
            assert (tmp_path / f"perturbation_reg_{weight}.ckpt").exists()

    def test_evaluate_writes_parseable_report(self, data_dir, artifacts, tmp_path):
        code = main([
            "evaluate",
            "--vae", str(artifacts / "vae.ckpt"),
            "--perturbation", str(artifacts / "perturbation.ckpt"),
            "--classifier", str(artifacts / "eval.ckpt"),
            "--images", str(data_dir / "test-images.idx"),
            "--labels", str(data_dir / "test-labels.idx"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        meta, rows = parse_report((tmp_path / "report.csv").read_text())
        assert meta["mode"] == "independent"
        assert len(rows) == 6
        assert (tmp_path / "delta_elements.csv").exists()

    def test_evaluate_reports_malformed_descriptor(self, data_dir, artifacts, tmp_path, capsys):
        broken = tmp_path / "eval.ckpt"
        broken.write_bytes((artifacts / "eval.ckpt").read_bytes().replace(b'"hidden"', b'"hiddeN"'))
        code = main([
            "evaluate",
            "--vae", str(artifacts / "vae.ckpt"),
            "--perturbation", str(artifacts / "perturbation.ckpt"),
            "--classifier", str(broken),
            "--images", str(data_dir / "test-images.idx"),
            "--labels", str(data_dir / "test-labels.idx"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'hidden'" in err

    def test_evaluate_rejects_attack_classifier(self, data_dir, artifacts, tmp_path, capsys):
        code = main([
            "evaluate",
            "--vae", str(artifacts / "vae.ckpt"),
            "--perturbation", str(artifacts / "perturbation.ckpt"),
            "--classifier", str(artifacts / "attack.ckpt"),
            "--images", str(data_dir / "test-images.idx"),
            "--labels", str(data_dir / "test-labels.idx"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "eval" in capsys.readouterr().err


class TestRender:
    def test_renders_grid(self, data_dir, tmp_path):
        out = tmp_path / "grid.pgm"
        code = main([
            "render",
            "--images", str(data_dir / "test-images.idx"),
            "--labels", str(data_dir / "test-labels.idx"),
            "--out", str(out), "--count", "6", "--columns", "3",
        ])
        assert code == 0
        header = out.read_bytes()[:15]
        assert header.startswith(b"P5\n")
        # 2 rows x 3 columns of 8x8 tiles with separators and border
        assert b"28 19" in header

    def test_label_filter(self, data_dir, tmp_path):
        out = tmp_path / "ones.pgm"
        code = main([
            "render",
            "--images", str(data_dir / "test-images.idx"),
            "--labels", str(data_dir / "test-labels.idx"),
            "--out", str(out), "--count", "4", "--columns", "2", "--label", "1",
        ])
        assert code == 0
        assert out.exists()


TINY_GRID = [
    "--sample-count", "60", "--width", "8", "--height", "8",
    "--test-count", "20", "--vae-epochs", "2", "--attack-epochs", "2",
    "--latent-dim", "4", "--batch-size", "16", "--seed", "1", "--data-seed", "1",
]


class TestRunGrid:
    def test_tiny_grid_end_to_end(self, tmp_path, capsys):
        code = main(["run-grid", "--out-dir", str(tmp_path), *TINY_GRID])
        assert code == 0
        names = [p.name for p in tmp_path.iterdir() if p.is_dir()]
        assert len(names) == 6
        for name in names:
            assert (tmp_path / name / "report.csv").exists()
            assert (tmp_path / name / "vae.ckpt").exists()
            assert (tmp_path / name / "perturbation.ckpt").exists()
        out = capsys.readouterr().out
        assert "running 6 plans" in out
        assert "Confidence means" in out
        assert out.count("eps+") == 6

    @pytest.mark.parametrize("key", ["mode", "family", "norm_order", "out_dir"])
    def test_config_keys_fixed_by_the_grid_are_errors(self, tmp_path, capsys, key):
        config = tmp_path / "grid.cfg"
        config.write_text(f"{key} = 1\n")
        code = main([
            "run-grid", "--out-dir", str(tmp_path / "out"), "--config", str(config),
            *TINY_GRID,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert not (tmp_path / "out").exists()
