import json
import struct
from pathlib import Path

import numpy as np
import pytest

from latentpoison import attack, cli
from latentpoison.attack import Perturbation
from latentpoison.models import TrainConfig, VaeParams
from latentpoison.checkpoint import load_checkpoint, save_checkpoint
from latentpoison.cli import _learn_attack_configs, build_parser, main
from latentpoison.config import ConfigError
from latentpoison.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    Dataset,
    generate_synthetic,
    load_idx,
    save_idx,
)
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


@pytest.fixture(scope="module")
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


@pytest.fixture(scope="module")
def mismatched(tmp_path_factory):
    """Inputs that disagree with ``artifacts``: 9x8 rows, a latent-6 VAE, a
    checkpoint holding a multiplicative perturbation with a reverse vector,
    and an 8x8 pair whose labels hold class 0 only."""
    out = tmp_path_factory.mktemp("mismatched")
    save_idx(generate_synthetic(20, 9, 8, seed=2), out / "wide-img.idx", out / "wide-lbl.idx")
    data = generate_synthetic(20, 8, 8, seed=2)
    rows = data.class_indices(0)
    save_idx(Dataset(data.images[rows], data.labels[rows], 8, 8),
             out / "one-img.idx", out / "one-lbl.idx")
    save_checkpoint(VaeParams.initialize(64, 6, np.random.default_rng(0)), out / "vae6.ckpt")
    path = out / "multiplicative.ckpt"
    save_checkpoint(Perturbation(np.zeros(4), 2, "additive", 0.01, "independent",
                                 delta_reverse=np.zeros(4)), path)
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[5:9])
    desc = json.loads(blob[9 : 9 + length]) | {"family": "multiplicative"}
    new = json.dumps(desc).encode("utf-8")
    path.write_bytes(blob[:5] + struct.pack("<I", len(new)) + new + blob[9 + length :])
    return out


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

    def test_negative_test_count_rejected(self, tmp_path, capsys):
        code = main([
            "gen-data", "--out-dir", str(tmp_path / "out"),
            "--count", "10", "--width", "8", "--height", "8", "--test-count", "-5",
        ])
        assert code == 2
        assert "test_count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_split_rejected_before_out_dir_is_made(self, tmp_path, capsys):
        code = main([
            "gen-data", "--out-dir", str(tmp_path / "gd"),
            "--count", "10", "--width", "8", "--height", "8", "--test-count", "10",
        ])
        assert code == 2
        assert "test_count" in capsys.readouterr().err
        assert not (tmp_path / "gd").exists()


class TestTrainingCommands:
    def test_train_classifier_and_vae(self, data_dir, tmp_path):
        clf_path = tmp_path / "clf.ckpt"
        code = main([
            "train-classifier", *_train_args(data_dir, []),
            "--out", str(clf_path), "--role", "eval",
            "--epochs", "2", "--batch-size", "16", "--seed", "5",
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

    def test_out_parents_are_made_and_the_echo_keeps_vae_defaults(self, data_dir, tmp_path):
        out = tmp_path / "new" / "nets" / "clf.ckpt"
        code = main([
            "train-classifier", *_train_args(data_dir, []), "--role", "attack",
            "--out", str(out), "--epochs", "1", "--batch-size", "16",
        ])
        assert code == 0
        _, config = load_checkpoint(out, expect_kind="classifier")
        for key in cli.CLASSIFIER_FIXED:
            assert config[key] == getattr(TrainConfig(), key)

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
        return _learn_attack_configs(args)[:2]

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

    def test_vae_batch_size_in_the_file_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="'vae_batch_size' is fixed"):
            self._configs(tmp_path, "vae_batch_size = 32\n")

    def test_unknown_prefixed_key_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown configuration key 'vae_bogus'"):
            self._configs(tmp_path, "vae_bogus = 1\n")

    def test_known_keys_are_the_ones_a_file_may_set(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            self._configs(tmp_path, "kl_weight = 0.2\n")
        known = str(info.value).split("known keys: ")[1].split(", ")
        assert "vae_kl_weight" in known and "epochs" in known and "vae_epochs" in known
        assert "kl_weight" not in known and "vae_batch_size" not in known

    @pytest.mark.parametrize("text, key", [
        ("vae_bogus = 1\n", "vae_bogus"),
        ("vae_batch_size = 8\n", "vae_batch_size"),
        ("vae_epochs = x\n", "vae_epochs"),
        ("random_init = maybe\n", "random_init"),
    ], ids=["unknown", "fixed", "number", "boolean"])
    def test_errors_name_the_file_and_the_key_as_written(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=rf"attack\.cfg: .*'{key}'"):
            self._configs(tmp_path, text)

    @pytest.mark.parametrize("text, flags", [
        ("lr = -1\n", ["--lr", "0.1"]),
        ("vae_lr = -1\n", ["--vae-lr", "0.1"]),
    ], ids=["attack", "vae"])
    def test_a_flag_beats_an_invalid_file_value(self, tmp_path, text, flags):
        attack, vae = self._configs(tmp_path, text, *flags)
        assert (attack.lr if flags[0] == "--lr" else vae.lr) == 0.1

    @pytest.mark.parametrize("given", ["flag", "file"])
    def test_sweep_rejects_a_reg_weight(self, tmp_path, capsys, given):
        config = tmp_path / "attack.cfg"
        config.write_text("reg_weight = 0.5\n")
        setting = ["--reg-weight", "0.5"] if given == "flag" else ["--config", str(config)]
        code = main([
            "learn-attack", "--mode", "poisoning", "--sweep", *setting,
            # missing files: the rejection comes before the data is read
            "--images", str(tmp_path / "missing-images.idx"),
            "--labels", str(tmp_path / "missing-labels.idx"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert ("--reg-weight" if given == "flag" else "'reg_weight'") in err
        assert not (tmp_path / "out").exists()


class TestAttackAndEvaluate:
    def test_independent_attack_writes_perturbation(self, artifacts):
        pert, config = load_checkpoint(artifacts / "perturbation.ckpt", expect_kind="perturbation")
        assert pert.provenance == "independent"
        assert config["mode"] == "independent"

    @pytest.mark.parametrize("mode, settings, flags, named", [
        ("independent", "", ["--vae-epochs", "50", "--kl-weight", "9"],
         "--vae-epochs, --kl-weight"),
        ("independent", "vae_epochs = 50\n", [], "{cfg}: key 'vae_epochs'"),
        ("poisoning", "", ["--recon-class-weight", "3.0"], "--recon-class-weight"),
        ("poisoning", "vae_recon_class_weight = 3.0\n", [], "{cfg}: key 'vae_recon_class_weight'"),
        ("poisoning", "", ["--vae", "no.ckpt"], "--vae"),
        ("poisoning+class", "", ["--recon-class-weight", "1.0", "--classifier", "no.ckpt"],
         "--classifier"),
    ], ids=["independent-flags", "independent-file", "poisoning-flag", "poisoning-file",
            "poisoning-vae", "poisoning+class-classifier"])
    def test_vae_setting_the_mode_ignores_is_an_error(
        self, tmp_path, capsys, mode, settings, flags, named
    ):
        # rejected before anything is loaded: the images and checkpoints do not exist
        config = tmp_path / "attack.cfg"
        config.write_text(settings)
        # independent needs both checkpoints; a poisoning case passes only the flag it tests
        ckpts = ["--vae", "no.ckpt", "--classifier", "no.ckpt"] if mode == "independent" else []
        code = main([
            "learn-attack", "--mode", mode, "--images", "no.idx", "--labels", "no.idx",
            *ckpts, "--out-dir", str(tmp_path / "out"), "--config", str(config), *flags,
        ])
        assert code == 2
        assert f"{mode} mode does not use {named.format(cfg=config)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, wrong_role", [
        ("learn-attack --mode independent --vae {art}/vae.ckpt --classifier {art}/eval.ckpt"
         " --out-dir {out} --epochs 1", "eval"),
        ("train-vae --recon-classifier {art}/eval.ckpt --recon-class-weight 1.0"
         " --out {out}/vae.ckpt --epochs 1", "eval"),
        ("evaluate --vae {art}/vae.ckpt --perturbation {art}/perturbation.ckpt"
         " --classifier {art}/attack.ckpt --out-dir {out}", "attack"),
    ], ids=["learn-attack", "train-vae", "evaluate"])
    def test_classifier_of_the_other_role_rejected(
        self, data_dir, artifacts, tmp_path, capsys, command, wrong_role
    ):
        # the attack never trains against the eval classifier, which never scores for it
        out = tmp_path / "out"
        args = [a.format(art=artifacts, out=out) for a in command.split()]
        assert main([*args, *_train_args(data_dir, [])]) == 2
        assert f"got role {wrong_role!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "learn-attack --mode independent --per-direction --vae {art}/vae.ckpt"
        " --classifier {art}/attack.ckpt --out-dir {out} --epochs 1",
        "learn-attack --mode independent --vae {art}/vae.ckpt --classifier {art}/attack.ckpt"
        " --out-dir {out} --epochs 1",
        "learn-attack --mode poisoning --out-dir {out} --epochs 1",
        "train-classifier --role eval --out {out}/c.ckpt --epochs 1",
        "evaluate --vae {art}/vae.ckpt --perturbation {art}/perturbation.ckpt"
        " --classifier {art}/eval.ckpt --out-dir {out}",
    ], ids=["learn-attack-independent-per-direction", "learn-attack-independent",
            "learn-attack-poisoning", "train-classifier", "evaluate"])
    def test_one_class_rejected_before_training(
        self, data_dir, artifacts, tmp_path, capsys, monkeypatch, command
    ):
        # a one-class file fails before any checkpoint is read or anything trains
        train = load_idx(data_dir / "train-images.idx", data_dir / "train-labels.idx", {1})
        rows = train.class_indices(0)
        img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
        save_idx(Dataset(train.images[rows], train.labels[rows], 8, 8), img, lbl)
        monkeypatch.setattr(attack, "_train", _no_training)
        for name in ("train_classifier", "evaluate_attack", "load_checkpoint"):
            monkeypatch.setattr(cli, name, _no_training)
        args = [a.format(art=artifacts, out=tmp_path / "out") for a in command.split()]
        code = main([*args, "--images", str(img), "--labels", str(lbl)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {lbl}: {command.split()[0]} requires samples "
                                "from both classes\n")
        assert _listing(tmp_path) == [Path("img.idx"), Path("lbl.idx")]

    @pytest.mark.parametrize("command, error", [
        ("learn-attack --mode independent --family multiplicative --per-direction"
         " --vae {m}/no.ckpt --classifier {m}/no.ckpt --out-dir {out}"
         " --images {m}/no.idx --labels {m}/no.idx",
         "--per-direction: per_direction needs the additive family: "
         "a multiplicative perturbation has one vector"),
        ("evaluate --vae {art}/vae.ckpt --perturbation {m}/multiplicative.ckpt"
         " --classifier {art}/eval.ckpt --out-dir {out} {test}",
         "{m}/multiplicative.ckpt: per_direction needs the additive family: "
         "a multiplicative perturbation has one vector"),
        ("evaluate --vae {m}/vae6.ckpt --perturbation {art}/perturbation.ckpt"
         " --classifier {art}/eval.ckpt --out-dir {out} {test}",
         "latent widths disagree: {m}/vae6.ckpt 6, {art}/perturbation.ckpt 4"),
        ("evaluate --vae {art}/vae.ckpt --perturbation {art}/perturbation.ckpt"
         " --classifier {art}/eval.ckpt --out-dir {out} {wide}",
         "image widths disagree: {art}/vae.ckpt 64, {art}/eval.ckpt 64, {m}/wide-img.idx 72"),
        ("evaluate --vae {art}/vae.ckpt --perturbation {art}/perturbation.ckpt"
         " --classifier {art}/attack.ckpt --out-dir {out} {test}",
         "{art}/attack.ckpt: confidence tables must use the eval classifier, got role 'attack'"),
        ("train-vae --recon-classifier {art}/eval.ckpt --recon-class-weight 1.0"
         " --out {out}/vae.ckpt {train}",
         "{art}/eval.ckpt: the reconstruction term must use the attack classifier, "
         "got role 'eval'"),
        ("train-vae --recon-classifier {art}/attack.ckpt --recon-class-weight 1.0"
         " --out {out}/vae.ckpt {wide}",
         "image widths disagree: {art}/attack.ckpt 64, {m}/wide-img.idx 72"),
        ("learn-attack --mode independent --vae {art}/vae.ckpt --classifier {art}/attack.ckpt"
         " --out-dir {out} {wide}",
         "image widths disagree: {art}/vae.ckpt 64, {art}/attack.ckpt 64, {m}/wide-img.idx 72"),
        ("learn-attack --mode independent --vae {art}/vae.ckpt --classifier {art}/eval.ckpt"
         " --out-dir {out} {train}",
         "{art}/eval.ckpt: the independent attack must use the attack classifier, "
         "got role 'eval'"),
    ], ids=["learn-attack-multiplicative-per-direction", "evaluate-multiplicative-checkpoint",
            "evaluate-latent-width", "evaluate-image-width", "evaluate-role",
            "train-vae-role", "train-vae-image-width", "learn-attack-image-width",
            "learn-attack-role"])
    def test_mismatch_named_before_any_echo_or_work(
        self, data_dir, artifacts, mismatched, tmp_path, capsys, monkeypatch, command, error
    ):
        for name in ("train_vae", "learn_attack_frozen", "evaluate_attack"):
            monkeypatch.setattr(cli, name, _no_training)
        fill = {
            "art": artifacts, "m": mismatched, "out": tmp_path / "out",
            "train": " ".join(_train_args(data_dir, [])),
            "test": f"--images {data_dir}/test-images.idx --labels {data_dir}/test-labels.idx",
            "wide": f"--images {mismatched}/wide-img.idx --labels {mismatched}/wide-lbl.idx",
        }
        code = main(command.format(**fill).split())
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {error.format(**fill)}\n")
        assert _listing(tmp_path) == []

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

    @pytest.mark.parametrize("mode", ["poisoning", "poisoning+class"])
    def test_poisoning_sweep_trains_each_network_once(self, data_dir, tmp_path, monkeypatch, mode):
        calls = {"train_classifier": 0, "_vae_step": 0}

        def counting(name):
            original = getattr(attack, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(attack, name, counting(name))
        class_term = ["--recon-class-weight", "1.0"] if mode == "poisoning+class" else []
        code = main([
            "learn-attack", "--mode", mode, *_train_args(data_dir, []),
            "--out-dir", str(tmp_path), "--epochs", "1", "--vae-epochs", "1",
            "--latent-dim", "4", "--batch-size", "16", *class_term, "--sweep",
        ])
        assert code == 0
        assert calls == {"train_classifier": 1, "_vae_step": 1}
        for weight in ("0.001", "0.01", "0.1", "1.0"):
            assert (tmp_path / f"vae_reg_{weight}.ckpt").exists()
            assert (tmp_path / f"perturbation_reg_{weight}.ckpt").exists()

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

    def test_evaluate_names_a_zero_latent_width(self, data_dir, artifacts, tmp_path, capsys):
        # a VAE and a perturbation of latent width 0 agree with each other, and once loaded
        # failed in the report with "max() arg is an empty sequence", naming no file
        vae = tmp_path / "vae0.ckpt"
        save_checkpoint(VaeParams.initialize(64, 0, np.random.default_rng(0)), vae)
        save_checkpoint(Perturbation(np.zeros(0), 2, "additive", 0.01, "independent"),
                        tmp_path / "dz0.ckpt")
        code = main([
            "evaluate", "--vae", str(vae), "--perturbation", str(tmp_path / "dz0.ckpt"),
            "--classifier", str(artifacts / "eval.ckpt"),
            "--images", str(data_dir / "test-images.idx"),
            "--labels", str(data_dir / "test-labels.idx"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {vae}: descriptor field 'latent_dim' holds a width below 1: 0\n")
        assert not (tmp_path / "out").exists()


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


def _listing(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


class TestRejectedBeforeAnyInput:
    """Each rejection exits 2, names what it rejects and creates nothing.

    The images and checkpoints passed do not exist, so the rejection
    provably comes before any input is read.
    """

    @pytest.fixture
    def missing(self, tmp_path):
        return ["--images", str(tmp_path / "no.idx"), "--labels", str(tmp_path / "no.idx")]

    @pytest.mark.parametrize("flag, value", [
        ("--kl-weight", "99"), ("--latent-dim", "7"), ("--recon-class-weight", "5"),
    ])
    def test_train_classifier_has_no_vae_flag(self, tmp_path, capsys, missing, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["train-classifier", *missing, "--role", "eval",
                  "--out", str(tmp_path / "out" / "c.ckpt"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert _listing(tmp_path) == []

    @pytest.mark.parametrize("command, key", [
        *(("train-classifier --role eval", key) for key in cli.CLASSIFIER_FIXED),
        ("train-vae", "recon_class_weight"),
    ])
    def test_file_key_the_command_never_reads(self, tmp_path, capsys, missing, command, key):
        config = tmp_path / "train.cfg"
        config.write_text(f"{key} = 5\n")
        code = main([*command.split(), *missing, "--config", str(config),
                     "--out", str(tmp_path / "out" / "x.ckpt")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}: key {key!r} is fixed by this command\n"
        assert _listing(tmp_path) == [config.relative_to(tmp_path)]

    @pytest.mark.parametrize("command", [
        "gen-data",
        "learn-attack --mode poisoning",
        "evaluate --vae {d}/no.ckpt --perturbation {d}/no.ckpt --classifier {d}/no.ckpt",
    ], ids=["gen-data", "learn-attack", "evaluate"])
    def test_out_dir_that_is_a_file(self, tmp_path, capsys, monkeypatch, missing, command):
        monkeypatch.setattr(cli, "generate_synthetic", _no_training)
        blocker = tmp_path / "file"
        blocker.write_text("")
        inputs = [] if command == "gen-data" else missing
        code = main([*command.format(d=tmp_path).split(), *inputs, "--out-dir", str(blocker)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --out-dir {blocker}: {blocker} is not a directory\n"
        assert _listing(tmp_path) == [Path("file")]

    @pytest.mark.parametrize("command", ["train-vae", "train-classifier --role eval", "render"])
    @pytest.mark.parametrize("case", ["under-a-file", "a-directory"])
    def test_out_that_cannot_be_written(self, tmp_path, capsys, missing, command, case):
        blocker = tmp_path / "file"
        blocker.write_text("")
        if case == "under-a-file":
            out = blocker / "sub" / "x.out"
            expected = f"error: --out {out}: {blocker} is not a directory\n"
        else:
            out = tmp_path / "dir"
            out.mkdir()
            expected = f"error: --out {out} is a directory\n"
        before = _listing(tmp_path)
        code = main([*command.split(), *missing, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == expected
        assert _listing(tmp_path) == before


class TestRejectedBeforeTraining:
    """Each rejection exits 2 with an empty stdout, names the file or the setting, creates nothing."""

    @pytest.mark.parametrize("flags, error", [
        (["--count", "3"], "--count: count must be positive and even, got 3"),
        (["--width", "4"], "--width: width and height must be at least 8, got 4x16"),
        (["--count", "10", "--test-count", "9"],
         "--test-count: cannot keep class 0 non-empty on both sides: 5 samples, test quota 5"),
    ], ids=["odd-count", "narrow", "split"])
    def test_gen_data_echoes_only_accepted_settings(self, tmp_path, capsys, flags, error):
        code = main(["gen-data", "--out-dir", str(tmp_path / "gd"), *flags])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert _listing(tmp_path) == []

    @pytest.mark.parametrize("command", [
        "train-classifier --role eval --out {d}/out/c.ckpt",
        "train-vae --out {d}/out/v.ckpt",
        "render --out {d}/out/r.pgm",
        "learn-attack --mode independent --vae {d}/no.ckpt --classifier {d}/no.ckpt"
        " --out-dir {d}/out",
        "learn-attack --mode poisoning --out-dir {d}/out",
    ], ids=["train-classifier", "train-vae", "render", "learn-attack-independent",
            "learn-attack-poisoning"])
    @pytest.mark.parametrize("header, labels, named", [
        ((4, 0, 0), 4, ("img", "height")),
        ((0, 8, 8), 0, ("img", "count")),
        ((4, 8, 8), 0, ("lbl", "count")),
    ], ids=["0x0-images", "0-count-pair", "0-labels"])
    def test_zero_idx_size(self, tmp_path, capsys, monkeypatch, command, header, labels, named):
        for name in ("train_classifier", "train_vae", "learn_attack_frozen",
                     "learn_attack_protocol", "render_grid"):
            monkeypatch.setattr(cli, name, _no_training)
        paths = {"img": tmp_path / "img.idx", "lbl": tmp_path / "lbl.idx"}
        paths["img"].write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, *header)
                                 + bytes(header[0] * header[1] * header[2]))
        paths["lbl"].write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, labels) + bytes(labels))
        args = [a.format(d=tmp_path) for a in command.split()]
        code = main([*args, "--images", str(paths["img"]), "--labels", str(paths["lbl"])])
        assert code == 2
        path, field = paths[named[0]], named[1]
        assert capsys.readouterr() == (
            "", f"error: {path}: {field} is 0, every IDX size must be positive\n")
        assert _listing(tmp_path) == [Path("img.idx"), Path("lbl.idx")]


def _no_training(*args, **kwargs):
    raise AssertionError("a rejected run must not train")


@pytest.mark.parametrize("command, flag, value, field", [
    ("learn-attack", "--reg-weight", "nan", "reg_weight"),
    ("learn-attack", "--lr", "inf", "lr"),
    ("learn-attack", "--kl-weight", "nan", "kl_weight"),
    ("run-grid", "--reg-weight", "nan", "reg_weight"),
    ("run-grid", "--recon-class-weight", "inf", "recon_class_weight"),
])
def test_non_finite_setting_rejected_before_training(
    data_dir, tmp_path, capsys, monkeypatch, command, flag, value, field
):
    for name in ("train_classifier", "train_vae", "_train"):
        monkeypatch.setattr(attack, name, _no_training)
    monkeypatch.setattr(cli, "run_experiment", _no_training)
    out = tmp_path / "out"
    if command == "learn-attack":
        args = ["learn-attack", "--mode", "poisoning", *_train_args(data_dir, []),
                "--out-dir", str(out), "--epochs", "1", "--vae-epochs", "1"]
    else:
        args = ["run-grid", "--out-dir", str(out), *TINY_GRID]
    code = main([*args, flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: {field} must be finite, got {float(value)}\n"
    assert not out.exists()


TINY_GRID = [
    "--sample-count", "60", "--width", "8", "--height", "8",
    "--test-count", "20", "--vae-epochs", "2", "--attack-epochs", "2",
    "--latent-dim", "4", "--batch-size", "16", "--seed", "1", "--data-seed", "1",
]


@pytest.mark.parametrize("command, settings, error", [
    # a setting a rule rejects, named by its flag or its file key; the config file is b.cfg
    ("train-vae --recon-classifier {art}/attack.ckpt --out {tmp}/new/vae.ckpt {train}", None,
     "--recon-classifier needs --recon-class-weight > 0, got 0.0"),
    ("learn-attack --mode poisoning+class --recon-class-weight 0 --out-dir {tmp}/out {train}",
     None, "--mode poisoning+class needs --recon-class-weight > 0, got 0.0"),
    ("train-vae --config {tmp}/b.cfg --recon-classifier {art}/attack.ckpt"
     " --out {tmp}/new/vae.ckpt {train}", "recon_class_weight = 0\n",
     "{tmp}/b.cfg: key 'recon_class_weight': --recon-classifier needs recon_class_weight > 0, "
     "got 0.0"),
    ("learn-attack --mode poisoning+class --config {tmp}/b.cfg --out-dir {tmp}/out {train}",
     "vae_recon_class_weight = 0\n",
     "{tmp}/b.cfg: key 'vae_recon_class_weight': poisoning+class needs recon_class_weight > 0, "
     "got 0.0"),
    ("learn-attack --mode poisoning --vae-lr -1 --out-dir {tmp}/out {train}", None,
     "--vae-lr: lr must be positive, got -1.0"),
    ("learn-attack --mode poisoning --config {tmp}/b.cfg --out-dir {tmp}/out {train}",
     "vae_lr = -1\n", "{tmp}/b.cfg: key 'vae_lr': lr must be positive, got -1.0"),
    ("train-classifier --role eval --lr -1 --out {tmp}/new/c.ckpt {train}", None,
     "--lr: lr must be positive, got -1.0"),
    ("train-classifier --role eval --config {tmp}/b.cfg --out {tmp}/new/c.ckpt {train}",
     "lr = -1\n", "{tmp}/b.cfg: key 'lr': lr must be positive, got -1.0"),
    ("train-vae --latent-dim 0 --out {tmp}/new/vae.ckpt {train}", None,
     "--latent-dim: latent_dim must be at least 1, got 0"),
    ("gen-data --out-dir {tmp}/out --count 10 --test-count -5", None,
     "--test-count: test_count must be non-negative (0 writes no split), got -5"),
    ("run-grid --out-dir {tmp}/out {grid} --reg-weight -1", None,
     "--reg-weight: reg_weight must be non-negative, got -1.0"),
    ("run-grid --out-dir {tmp}/out --config {tmp}/b.cfg {grid}", "attack_lr = -1\n",
     "{tmp}/b.cfg: key 'attack_lr': lr must be positive, got -1.0"),
    ("run-grid --out-dir {tmp}/out --sample-count 3 --width 8 --height 8", None,
     "--sample-count: count must be positive and even, got 3"),
    ("run-grid --out-dir {tmp}/out {grid} --recon-class-weight 0", None,
     "--recon-class-weight: poisoning+class needs recon_class_weight > 0, got 0.0"),
    ("run-grid --out-dir {tmp}/out --config {tmp}/b.cfg {grid}", "recon_class_weight = 0\n",
     "{tmp}/b.cfg: key 'recon_class_weight': poisoning+class needs recon_class_weight > 0, "
     "got 0.0"),
    ("gen-data --out-dir {tmp}/out --count 10 --test-count 10", None,
     "--test-count: test_count must be in (0, 10), got 10"),
    ("train-vae --recon-class-weight 5 --out {tmp}/out/v.ckpt {missing}", None,
     "--recon-class-weight needs --recon-classifier"),
    ("learn-attack --mode independent --out-dir {tmp}/out --epochs 1 {train}", None,
     "independent mode requires --vae and --classifier"),
    ("render --columns 0 --out {tmp}/new/x.pgm {test}", None,
     "--columns must be at least 1, got 0"),
    ("render --count -1 --out {tmp}/new/x.pgm {test}", None, "--count must be at least 1, got -1"),
    ("render --label 1 --out {tmp}/new/x.pgm {one}", None,
     "{m}/one-lbl.idx: no samples of --label 1"),
    # an input file of the wrong kind, role, width or classes, named by its path
    ("learn-attack --mode independent --vae {tmp}/nope.ckpt --classifier {art}/attack.ckpt"
     " --out-dir {tmp}/la --epochs 1 {train}", None,
     "[Errno 2] No such file or directory: '{tmp}/nope.ckpt'"),
    ("train-vae --recon-classifier {art}/vae.ckpt --recon-class-weight 1.0"
     " --out {tmp}/new/vae.ckpt {train}", None, "{art}/vae.ckpt: holds a vae, expected a classifier"),
    ("learn-attack --mode independent --vae {art}/attack.ckpt --classifier {art}/attack.ckpt"
     " --out-dir {tmp}/out {train}", None, "{art}/attack.ckpt: holds a classifier, expected a vae"),
    ("evaluate --vae {art}/vae.ckpt --perturbation {art}/vae.ckpt --classifier {art}/eval.ckpt"
     " --out-dir {tmp}/out {test}", None, "{art}/vae.ckpt: holds a vae, expected a perturbation"),
    ("train-vae --recon-classifier {art}/eval.ckpt --recon-class-weight 1.0"
     " --out {tmp}/new/vae.ckpt {train}", None,
     "{art}/eval.ckpt: the reconstruction term must use the attack classifier, got role 'eval'"),
    ("learn-attack --mode independent --vae {art}/vae.ckpt --classifier {art}/eval.ckpt"
     " --out-dir {tmp}/out {train}", None,
     "{art}/eval.ckpt: the independent attack must use the attack classifier, got role 'eval'"),
    ("evaluate --vae {art}/vae.ckpt --perturbation {art}/perturbation.ckpt"
     " --classifier {art}/attack.ckpt --out-dir {tmp}/out {test}", None,
     "{art}/attack.ckpt: confidence tables must use the eval classifier, got role 'attack'"),
    ("train-vae --recon-classifier {art}/attack.ckpt --recon-class-weight 1.0"
     " --out {tmp}/new/vae.ckpt {wide}", None,
     "image widths disagree: {art}/attack.ckpt 64, {m}/wide-img.idx 72"),
    ("learn-attack --mode independent --vae {art}/vae.ckpt --classifier {art}/attack.ckpt"
     " --out-dir {tmp}/out {wide}", None,
     "image widths disagree: {art}/vae.ckpt 64, {art}/attack.ckpt 64, {m}/wide-img.idx 72"),
    ("evaluate --vae {m}/vae6.ckpt --perturbation {art}/perturbation.ckpt"
     " --classifier {art}/eval.ckpt --out-dir {tmp}/out {test}", None,
     "latent widths disagree: {m}/vae6.ckpt 6, {art}/perturbation.ckpt 4"),
    ("learn-attack --mode poisoning --out-dir {tmp}/out {one}", None,
     "{m}/one-lbl.idx: learn-attack requires samples from both classes"),
    # a VAE key the mode does not use, named by file and key
    ("learn-attack --mode independent --vae {art}/vae.ckpt --classifier {art}/attack.ckpt"
     " --config {tmp}/b.cfg --out-dir {tmp}/out {train}", "vae_epochs = 3\n",
     "independent mode does not use {tmp}/b.cfg: key 'vae_epochs'"),
    ("learn-attack --mode poisoning --config {tmp}/b.cfg --out-dir {tmp}/out {train}",
     "vae_recon_class_weight = 2\n",
     "poisoning mode does not use {tmp}/b.cfg: key 'vae_recon_class_weight'"),
], ids=[
    "train-vae-recon-classifier-without-weight", "poisoning+class-zero-weight",
    "train-vae-class-weight-file", "poisoning+class-class-weight-file", "vae-lr-flag",
    "vae-lr-file", "lr-flag", "lr-file", "latent-dim-flag", "gen-data-test-count-flag",
    "run-grid-reg-weight-flag", "run-grid-attack-lr-file", "run-grid-sample-count-flag",
    "run-grid-class-weight-flag", "run-grid-class-weight-file", "gen-data-test-count-split",
    "recon-weight-without-classifier",
    "independent-without-checkpoints", "render-columns", "render-count", "render-absent-label",
    "missing-checkpoint", "train-vae-kind", "learn-attack-kind", "evaluate-kind",
    "train-vae-role", "learn-attack-role", "evaluate-role", "train-vae-width",
    "learn-attack-width", "evaluate-width", "one-class-labels", "independent-vae-key-file",
    "poisoning-class-weight-key-file",
])
def test_every_rejection_names_its_input(
    data_dir, artifacts, mismatched, tmp_path, capsys, monkeypatch, command, settings, error
):
    """A rejected command exits 2, names the file or flag, prints no stdout and leaves nothing."""
    for name in ("generate_synthetic", "train_vae", "train_classifier", "learn_attack_frozen",
                 "learn_attack_protocol", "evaluate_attack", "run_experiment", "render_grid"):
        monkeypatch.setattr(cli, name, _no_training)
    if settings is not None:
        (tmp_path / "b.cfg").write_text(settings)
    fill = {
        "art": artifacts, "m": mismatched, "tmp": tmp_path, "grid": " ".join(TINY_GRID),
        "train": " ".join(_train_args(data_dir, [])),
        "test": f"--images {data_dir}/test-images.idx --labels {data_dir}/test-labels.idx",
        "wide": f"--images {mismatched}/wide-img.idx --labels {mismatched}/wide-lbl.idx",
        "one": f"--images {mismatched}/one-img.idx --labels {mismatched}/one-lbl.idx",
        "missing": f"--images {tmp_path}/no.idx --labels {tmp_path}/no.idx",
    }
    before = _listing(tmp_path)
    code = main(command.format(**fill).split())
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {error.format(**fill)}\n")
    assert _listing(tmp_path) == before


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

    @pytest.mark.parametrize("case", ["saturated", "out-dir-is-a-file"])
    def test_failed_stage_is_an_error_not_a_traceback(self, tmp_path, capsys, monkeypatch, case):
        out = tmp_path / "out"
        if case == "saturated":
            flags = [*TINY_GRID, "--lr", "1e10"]  # the first classifier step saturates it
            expected = "error: stage 'train-eval-classifier' failed: saturated classifier at "
        else:
            out.write_text("")
            flags = TINY_GRID
            expected = f"error: --out-dir {out}: {out} is not a directory"
            monkeypatch.setattr(cli, "run_experiment", _no_training)
        with np.errstate(all="ignore"):
            code = main(["run-grid", "--out-dir", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(expected)
        assert "Traceback" not in err
        assert not out.is_dir()

    def test_out_dir_under_a_file_is_rejected_before_any_plan(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(cli, "run_experiment", _no_training)
        code = main(["run-grid", "--out-dir", str(blocker / "sub" / "out"), *TINY_GRID])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --out-dir {blocker / 'sub' / 'out'}: {blocker} is not a directory\n"
        )

    def test_fixed_keys_are_not_listed_as_known(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text("bogus = 1\n")
        code = main(["run-grid", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: unknown configuration key 'bogus'; known keys: ")
        known = err.strip().split("known keys: ")[1].split(", ")
        assert "reg_weight" in known
        assert not {"mode", "family", "norm_order", "out_dir"} & set(known)

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
