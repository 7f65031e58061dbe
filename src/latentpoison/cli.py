"""Command-line front end.

Subcommands cover the pipeline end to end: generate data, train the
networks, learn a perturbation, evaluate it, run the full experiment
grid, and render image grids. Every option also works as a ``key =
value`` line in a ``--config`` file; explicit flags override file values,
and the effective configuration is echoed to stdout and into all outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .attack import MODES, AttackConfig, learn_attack_frozen, learn_attack_protocol
from .checkpoint import load_checkpoint
from .config import ConfigError, flag_name, load_config_file, merge_settings, require_echo
from .data import _require_data_settings, generate_synthetic, load_idx, save_idx, split
from .evaluation import ROW_NAMES, evaluate_attack
from .experiment import ExperimentError, ExperimentPlan, grid_plans, run_experiment
from .models import (ROLES, TrainConfig, _require_class_weight, _require_role,
                     _require_same_widths, train_classifier, train_vae)
from .reporting import render_grid, write_artifacts

REG_WEIGHT_SWEEP = (0.001, 0.01, 0.1, 1.0)
GRID_FIXED = ("mode", "family", "norm_order", "out_dir")  # run-grid sets these per plan
CLASSIFIER_FIXED = ("kl_weight", "latent_dim", "recon_class_weight")  # VAE-only settings
# learn-attack's VAE flags by TrainConfig field; each lands in args.vae_<field>
VAE_FLAGS = {"epochs": "--vae-epochs", "lr": "--vae-lr", "seed": "--vae-seed",
             "kl_weight": "--kl-weight", "recon_class_weight": "--recon-class-weight",
             "latent_dim": "--latent-dim"}


def _add_dataclass_flags(parser: argparse.ArgumentParser, template, skip=()) -> None:
    """``--config`` and one long option per dataclass field, defaulting to "not provided"."""
    parser.add_argument("--config")
    for f in dataclasses.fields(template):
        if f.name in skip:
            continue
        default = getattr(template, f.name)
        kind = ({"action": argparse.BooleanOptionalAction} if isinstance(default, bool)
                else {"type": type(default)})
        parser.add_argument(flag_name(f.name), dest=f.name, default=None,
                            help=f"default {default}", **kind)


def _add_required(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, required=True)


def _merge(args: argparse.Namespace, *templates, fixed=()) -> list:
    """``(instance, origins)`` per template of a one-part command: defaults < file < flags."""
    file_values = load_config_file(args.config) if args.config else {}
    return [merge_settings([(template, "")], args.config, file_values, args, fixed)[0]
            for template in templates]


def _check_out_paths(args) -> None:
    """Reject an output path no command could write, before any input is read.

    The nearest existing ancestor of ``--out-dir``, or of ``--out``'s
    directory, must be a directory, and ``--out`` must not be one.
    """
    for flag, path in (("--out-dir", getattr(args, "out_dir", None)),
                       ("--out", getattr(args, "out", None))):
        if path is None:
            continue
        path = Path(path)
        if flag == "--out" and path.is_dir():
            raise ConfigError(f"--out {path} is a directory")
        start = path if flag == "--out-dir" else path.parent
        existing = next(p for p in (start, *start.absolute().parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"{flag} {path}: {existing} is not a directory")


def _echo(title: str, instance) -> None:
    print(f"[{title}]")
    for f in dataclasses.fields(instance):
        print(f"{f.name} = {getattr(instance, f.name)}")


@dataclass
class GenDataArgs:
    count: int = 2100
    width: int = 16
    height: int = 16
    seed: int = 7
    test_count: int = 100

    def __post_init__(self):
        if self.test_count < 0:
            raise ValueError(f"test_count must be non-negative (0 writes no split), "
                             f"got {self.test_count}")
        _require_data_settings(self.count, self.width, self.height, self.test_count or None)


def cmd_gen_data(args) -> int:
    [(cfg, _)] = _merge(args, GenDataArgs())
    _echo("gen-data", cfg)
    data = generate_synthetic(cfg.count, cfg.width, cfg.height, cfg.seed)
    out = Path(args.out_dir)
    if cfg.test_count > 0:
        train_set, test_set = split(data, cfg.test_count, cfg.seed)
        save_idx(train_set, out / "train-images.idx", out / "train-labels.idx")
        save_idx(test_set, out / "test-images.idx", out / "test-labels.idx")
        print(f"wrote {len(train_set)} train and {len(test_set)} test samples to {out}")
    else:
        save_idx(data, out / "images.idx", out / "labels.idx")
        print(f"wrote {len(data)} samples to {out}")
    return 0


def _load_inputs(args, both_classes=True, role=None, **kinds):
    """A command's dataset, and ``(params, config)`` per given checkpoint argument in ``kinds``.

    One pass, before any echo, checks both classes (if ``both_classes``), each checkpoint's
    kind, a classifier's role (``role`` is ``(role, use)``) and all widths, naming files.
    """
    dataset = load_idx(args.images, args.labels, positive_labels={1})
    if both_classes:
        dataset.require_both_classes(f"{args.labels}: {args.command}")
    paths = {name: getattr(args, name) for name in kinds if getattr(args, name)}
    loaded = {name: load_checkpoint(path, expect_kind=kinds[name]) for name, path in paths.items()}
    for name, (params, _) in loaded.items():
        if kinds[name] == "classifier":
            _require_role(params, role[0], f"{paths[name]}: {role[1]}")
    _require_same_widths({paths[name]: params for name, (params, _) in loaded.items()}
                         | {args.images: dataset})
    return dataset, loaded


def _require_recon_weight(weight: float, use: str, origins: dict[str, str]) -> None:
    """The class-weight rule for ``use``, after the flag or file key that set the weight."""
    try:
        _require_class_weight(weight, use)
    except ValueError as exc:
        origin = origins.get("recon_class_weight", "--recon-class-weight")
        raise ConfigError(f"{origin}: {exc}") from exc


def cmd_train_vae(args) -> int:
    # the reconstruction term needs a classifier: without one its weight is fixed at 0
    fixed = () if args.recon_classifier else ("recon_class_weight",)
    if fixed and args.recon_class_weight is not None:
        raise ConfigError("--recon-class-weight needs --recon-classifier")
    [(cfg, origins)] = _merge(args, TrainConfig(), fixed=fixed)
    if args.recon_classifier:
        _require_recon_weight(cfg.recon_class_weight, "--recon-classifier", origins)
    dataset, loaded = _load_inputs(args, both_classes=False,
                                   role=("attack", "the reconstruction term"),
                                   recon_classifier="classifier")
    recon_classifier, _ = loaded.get("recon_classifier", (None, None))
    _echo("train-vae", cfg)
    vae = train_vae(dataset, cfg, recon_classifier)
    write_artifacts(Path(args.out).parent, {Path(args.out).name: vae}, dataclasses.asdict(cfg))
    print(f"wrote {args.out}")
    return 0


def cmd_train_classifier(args) -> int:
    [(cfg, _)] = _merge(args, TrainConfig(), fixed=CLASSIFIER_FIXED)
    dataset, _ = _load_inputs(args)
    _echo("train-classifier", cfg)
    params = train_classifier(dataset, cfg, role=args.role)
    write_artifacts(Path(args.out).parent, {Path(args.out).name: params}, dataclasses.asdict(cfg))
    print(f"wrote {args.out} (role {args.role})")
    return 0


def _learn_attack_configs(args) -> tuple[AttackConfig, TrainConfig, dict[str, str]]:
    """Merge learn-attack settings; ``vae_``-prefixed keys and flags configure the VAE.

    The VAE trains on the attack's batches, so its batch size follows the
    attack's and a file may not set ``vae_batch_size``; a sweep takes no
    reg weight. The third value is the VAE part's origins: per field set by
    a flag or a file key, that flag or ``<file>: key '<key>'``.
    """
    if args.sweep and args.reg_weight is not None:
        raise ConfigError(f"--sweep runs reg weights {REG_WEIGHT_SWEEP}; drop --reg-weight")
    file_values = load_config_file(args.config) if args.config else {}
    fixed = ("vae_batch_size", "reg_weight") if args.sweep else ("vae_batch_size",)
    (attack_cfg, _), (vae_cfg, vae_origins) = merge_settings(
        [(AttackConfig(), ""), (TrainConfig(), "vae_")], args.config, file_values, args, fixed,
        flag_names={f"vae_{field}": flag for field, flag in VAE_FLAGS.items()},
    )
    return attack_cfg, dataclasses.replace(vae_cfg, batch_size=attack_cfg.batch_size), vae_origins


def cmd_learn_attack(args) -> int:
    attack_cfg, vae_cfg, vae_origins = _learn_attack_configs(args)
    if args.mode == "independent":
        if not args.vae or not args.classifier:
            raise ConfigError("independent mode requires --vae and --classifier")
        unused = list(vae_origins.values())  # the VAE comes trained from --vae
    else:  # the poisoning modes train their own VAE and classifier
        unused = [flag for flag, path in (("--vae", args.vae), ("--classifier", args.classifier))
                  if path]
        if args.mode == "poisoning" and "recon_class_weight" in vae_origins:
            unused.append(vae_origins["recon_class_weight"])  # only poisoning+class has that term
    if unused:
        raise ConfigError(f"{args.mode} mode does not use {', '.join(unused)}")
    if args.mode == "poisoning+class":
        _require_recon_weight(vae_cfg.recon_class_weight, args.mode, vae_origins)
    dataset, loaded = _load_inputs(args, role=("attack", "the independent attack"),
                                   vae="vae", classifier="classifier")
    weights = REG_WEIGHT_SWEEP if args.sweep else (attack_cfg.reg_weight,)
    configs = [dataclasses.replace(attack_cfg, reg_weight=weight) for weight in weights]
    echo = {"mode": args.mode}
    if args.mode == "independent":
        (vae, _), (classifier, _) = loaded.values()
        networks = {}
        perturbations = learn_attack_frozen(vae, classifier, dataset, *configs)
    else:
        _echo("learn-attack.vae", vae_cfg)
        echo |= {f"vae_{k}": v for k, v in dataclasses.asdict(vae_cfg).items()}
        vae, clf, *perturbations = learn_attack_protocol(args.mode, dataset, vae_cfg, *configs)
        networks = {"attack_classifier": clf, "vae": vae}
    out = Path(args.out_dir)
    for cfg, perturbation in zip(configs, perturbations):
        _echo("learn-attack", cfg)
        suffix = f"_reg_{cfg.reg_weight}" if args.sweep else ""
        artifacts = networks | {"perturbation": perturbation}
        write_artifacts(out, {f"{name}{suffix}.ckpt": params for name, params in artifacts.items()},
                        dataclasses.asdict(cfg) | echo)
        print(f"wrote {out / f'perturbation{suffix}.ckpt'}")
    return 0


def cmd_evaluate(args) -> int:
    echo = {name: str(getattr(args, name))
            for name in ("vae", "perturbation", "classifier", "images", "labels")}
    require_echo(echo)
    dataset, loaded = _load_inputs(args, role=("eval", "confidence tables"), vae="vae",
                                   perturbation="perturbation", classifier="classifier")
    (vae, _), (perturbation, pert_config), (classifier, _) = loaded.values()
    if pert_config:
        echo |= {f"attack_{k}": v for k, v in pert_config.items()}
    report = evaluate_attack(vae, perturbation, classifier, dataset)
    out = Path(args.out_dir)
    write_artifacts(out, {"report.csv": report, "delta_elements.csv": perturbation}, echo)
    for row in report.rows:
        print(f"{row.name}: {row.mean:.4f} +- {row.sd:.4f}")
    print(f"epsilon_plus = {report.epsilon_plus:+.4f}")
    print(f"epsilon_minus = {report.epsilon_minus:+.4f}")
    print(f"detection_probability_max = {report.detection_max:.4f}")
    print(f"sparsity_fraction = {report.sparsity_fraction:.4f}")
    print(f"wrote {out / 'report.csv'}")
    return 0


def cmd_run_grid(args) -> int:
    # one merge per plan, so poisoning+class's weight rule names its flag or key too
    plans = grid_plans(args.out_dir, include_multiplicative=args.include_multiplicative)
    plans = [plan for plan, _ in _merge(args, *plans, fixed=GRID_FIXED)]
    print(f"running {len(plans)} plans under {args.out_dir}")
    results = []
    for plan in plans:
        start = time.perf_counter()
        results.append((plan, run_experiment(plan)))
        print(f"done: {Path(plan.out_dir).name} ({time.perf_counter() - start:.0f}s)", flush=True)
    for family in dict.fromkeys(plan.family for plan in plans):
        columns = [(plan, report) for plan, report in results if plan.family == family]
        print(f"\nConfidence means, {family} family (eval classifier, test set)")
        print(f"{'group':24s}" + "".join(
            f"{plan.mode[:12]:>13s}/L{plan.norm_order}" for plan, _ in columns
        ))
        for name in ROW_NAMES:
            print(f"{name:24s}" + "".join(f"{r.row(name).mean:16.3f}" for _, r in columns))
    print("\nGap and sparsity")
    for plan, report in results:
        print(
            f"{plan.mode:16s} L{plan.norm_order} {plan.family:14s} "
            f"eps+ {report.epsilon_plus:+.3f}  eps- {report.epsilon_minus:+.3f}  "
            f"sparsity {report.sparsity_fraction:.3f}  "
            f"max detection {report.detection_max:.3f}"
        )
    return 0


def cmd_render(args) -> int:
    for flag, value in (("--count", args.count), ("--columns", args.columns)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    dataset, _ = _load_inputs(args, both_classes=False)
    images = dataset.images
    if args.label is not None:
        images = images[dataset.class_indices(args.label)]
    tiles = [image.reshape(dataset.height, dataset.width) for image in images[: args.count]]
    if not tiles:
        raise ConfigError(f"{args.labels}: no samples of --label {args.label}")
    render_grid(tiles, args.columns, args.out)
    print(f"wrote {args.out} ({len(tiles)} images)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentpoison",
        description="Train, attack and evaluate a small VAE through its latent space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic two-class dataset as IDX files")
    _add_required(p, "--out-dir")
    _add_dataclass_flags(p, GenDataArgs())
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-vae", help="train the encoder/decoder pair")
    _add_required(p, "--images", "--labels", "--out")
    p.add_argument("--recon-classifier", help="classifier checkpoint for the reconstruction term")
    _add_dataclass_flags(p, TrainConfig())
    p.set_defaults(func=cmd_train_vae)

    p = sub.add_parser("train-classifier", help="train a binary pixel classifier")
    _add_required(p, "--images", "--labels", "--out")
    p.add_argument("--role", choices=ROLES, required=True)
    _add_dataclass_flags(p, TrainConfig(), skip=CLASSIFIER_FIXED)
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("learn-attack", help="learn the constant latent perturbation")
    p.add_argument("--mode", choices=MODES, required=True)
    _add_required(p, "--images", "--labels", "--out-dir")
    p.add_argument("--vae", help="VAE checkpoint (independent mode)")
    p.add_argument("--classifier", help="classifier checkpoint (independent mode)")
    p.add_argument("--sweep", action="store_true",
                   help=f"one perturbation per reg weight in {REG_WEIGHT_SWEEP}")
    for field, flag in VAE_FLAGS.items():
        default = getattr(TrainConfig(), field)
        p.add_argument(flag, dest=f"vae_{field}", type=type(default), default=None,
                       help=f"VAE {field}, poisoning modes; default {default}")
    _add_dataclass_flags(p, AttackConfig())
    p.set_defaults(func=cmd_learn_attack)

    p = sub.add_parser("evaluate", help="score a perturbation and write the report")
    _add_required(p, "--vae", "--perturbation")
    p.add_argument("--classifier", required=True, help="eval-role classifier checkpoint")
    _add_required(p, "--images", "--labels", "--out-dir")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-grid", help="run the attack-mode by norm-order experiment grid")
    _add_required(p, "--out-dir")
    p.add_argument("--include-multiplicative", action="store_true")
    _add_dataclass_flags(p, ExperimentPlan(), skip=GRID_FIXED)
    p.set_defaults(func=cmd_run_grid)

    p = sub.add_parser("render", help="tile IDX images into a PGM grid")
    _add_required(p, "--images", "--labels", "--out")
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--columns", type=int, default=4)
    p.add_argument("--label", type=int, choices=(0, 1), default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    """Run one command; a rejected input prints ``error: ...`` and returns 2.

    Output paths are checked first, so a path no command could write
    fails before any input is read or any directory is made.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_paths(args)
        return args.func(args)
    except (ConfigError, ValueError, OSError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
