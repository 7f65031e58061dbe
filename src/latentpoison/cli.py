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

from .attack import (
    AttackConfig,
    learn_attack_independent,
    learn_attack_poisoning,
    learn_attack_poisoning_class,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, apply_config, load_config_file
from .data import generate_synthetic, load_idx, save_idx, split
from .evaluation import ROW_NAMES, evaluate_attack
from .experiment import ExperimentPlan, grid_plans, run_experiment
from .models import TrainConfig, train_classifier, train_vae
from .reporting import render_grid, write_delta, write_report

REG_WEIGHT_SWEEP = (0.001, 0.01, 0.1, 1.0)
GRID_FIXED = ("mode", "family", "norm_order", "out_dir")  # run-grid sets these per plan


def _flag_name(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def _add_dataclass_flags(parser: argparse.ArgumentParser, template, skip=()) -> None:
    """One long option per dataclass field, defaulting to "not provided"."""
    for f in dataclasses.fields(template):
        if f.name in skip:
            continue
        default = getattr(template, f.name)
        if isinstance(default, bool):
            parser.add_argument(
                _flag_name(f.name), dest=f.name, action=argparse.BooleanOptionalAction,
                default=None, help=f"default {default}",
            )
        else:
            parser.add_argument(
                _flag_name(f.name), dest=f.name, type=type(default), default=None,
                help=f"default {default}",
            )


def _merge(template, args: argparse.Namespace, file_values=None, skip=(), prefix=""):
    """defaults < config file < explicit flags, with unknown keys rejected.

    ``file_values`` defaults to the ``--config`` file and may not set the
    command's own ``skip`` keys; field ``f`` reads its flag from ``args.<prefix>f``.
    """
    if file_values is None:
        file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in skip:
        if key in file_values:
            raise ConfigError(f"{args.config}: key {key!r} is fixed by this command")
    instance = apply_config(template, file_values)
    overrides = {}
    for f in dataclasses.fields(template):
        value = getattr(args, prefix + f.name, None)
        if f.name not in skip and value is not None:
            overrides[f.name] = value
    return dataclasses.replace(instance, **overrides)


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


def cmd_gen_data(args) -> int:
    cfg = _merge(GenDataArgs(), args)
    _echo("gen-data", cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate_synthetic(cfg.count, cfg.width, cfg.height, cfg.seed)
    if cfg.test_count > 0:
        train_set, test_set = split(data, cfg.test_count, cfg.seed)
        save_idx(train_set, out / "train-images.idx", out / "train-labels.idx")
        save_idx(test_set, out / "test-images.idx", out / "test-labels.idx")
        print(f"wrote {len(train_set)} train and {len(test_set)} test samples to {out}")
    else:
        save_idx(data, out / "images.idx", out / "labels.idx")
        print(f"wrote {len(data)} samples to {out}")
    return 0


def _load_dataset(args):
    return load_idx(args.images, args.labels, positive_labels={1})


def cmd_train_vae(args) -> int:
    cfg = _merge(TrainConfig(), args)
    _echo("train-vae", cfg)
    dataset = _load_dataset(args)
    recon_classifier = None
    if args.recon_classifier:
        recon_classifier, _ = load_checkpoint(args.recon_classifier, expect_kind="classifier")
    vae = train_vae(dataset, cfg, recon_classifier)
    save_checkpoint(vae, args.out, config=dataclasses.asdict(cfg))
    print(f"wrote {args.out}")
    return 0


def cmd_train_classifier(args) -> int:
    cfg = _merge(TrainConfig(), args)
    _echo("train-classifier", cfg)
    dataset = _load_dataset(args)
    params = train_classifier(dataset, cfg, role=args.role)
    save_checkpoint(params, args.out, config=dataclasses.asdict(cfg))
    print(f"wrote {args.out} (role {args.role})")
    return 0


def _learn_attack_configs(args) -> tuple[AttackConfig, TrainConfig]:
    """Merge learn-attack settings; ``vae_``-prefixed keys and flags configure the VAE.

    The VAE trains on the attack's batches, so its batch size follows the attack's.
    """
    file_values = load_config_file(args.config) if args.config else {}
    vae_keys = [k for k in file_values if k.startswith("vae_")]
    attack_cfg = _merge(
        AttackConfig(), args, {k: v for k, v in file_values.items() if k not in vae_keys}
    )
    vae_cfg = _merge(
        TrainConfig(), args, {k[len("vae_") :]: file_values[k] for k in vae_keys}, prefix="vae_"
    )
    return attack_cfg, dataclasses.replace(vae_cfg, batch_size=attack_cfg.batch_size)


def cmd_learn_attack(args) -> int:
    attack_cfg, vae_cfg = _learn_attack_configs(args)
    dataset = _load_dataset(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "independent":
        if not args.vae or not args.classifier:
            raise ConfigError("independent mode requires --vae and --classifier")
        vae, _ = load_checkpoint(args.vae, expect_kind="vae")
        classifier, _ = load_checkpoint(args.classifier, expect_kind="classifier")
    weights = REG_WEIGHT_SWEEP if args.sweep else (attack_cfg.reg_weight,)
    for reg_weight in weights:
        cfg = dataclasses.replace(attack_cfg, reg_weight=reg_weight)
        _echo("learn-attack", cfg)
        suffix = f"_reg_{reg_weight}" if args.sweep else ""
        echo = dataclasses.asdict(cfg) | {"mode": args.mode}
        if args.mode == "independent":
            perturbation = learn_attack_independent(vae, classifier, dataset, cfg)
        else:
            _echo("learn-attack.vae", vae_cfg)
            echo |= {f"vae_{k}": v for k, v in dataclasses.asdict(vae_cfg).items()}
            if args.mode == "poisoning":
                vae, perturbation = learn_attack_poisoning(dataset, vae_cfg, cfg)
            else:
                vae, clf, perturbation = learn_attack_poisoning_class(dataset, vae_cfg, cfg)
                save_checkpoint(clf, out / f"attack_classifier{suffix}.ckpt", config=echo)
            save_checkpoint(vae, out / f"vae{suffix}.ckpt", config=echo)
        save_checkpoint(perturbation, out / f"perturbation{suffix}.ckpt", config=echo)
        print(f"wrote {out / f'perturbation{suffix}.ckpt'}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = _load_dataset(args)
    vae, _ = load_checkpoint(args.vae, expect_kind="vae")
    perturbation, pert_config = load_checkpoint(args.perturbation, expect_kind="perturbation")
    classifier, _ = load_checkpoint(args.classifier, expect_kind="classifier")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = {
        "vae": str(args.vae),
        "perturbation": str(args.perturbation),
        "classifier": str(args.classifier),
        "images": str(args.images),
        "labels": str(args.labels),
    }
    if pert_config:
        echo |= {f"attack_{k}": v for k, v in pert_config.items()}
    report = evaluate_attack(vae, perturbation, classifier, dataset, config=echo)
    write_report(report, out / "report.csv")
    write_delta(perturbation, out / "delta_elements.csv")
    for row in report.rows:
        print(f"{row.name}: {row.mean:.4f} +- {row.sd:.4f}")
    print(f"epsilon_plus = {report.epsilon_plus:+.4f}")
    print(f"epsilon_minus = {report.epsilon_minus:+.4f}")
    print(f"detection_probability_max = {report.detection_max:.4f}")
    print(f"sparsity_fraction = {report.sparsity_fraction:.4f}")
    print(f"wrote {out / 'report.csv'}")
    return 0


def cmd_run_grid(args) -> int:
    base = _merge(ExperimentPlan(), args, skip=GRID_FIXED)
    plans = grid_plans(
        args.out_dir, base=base, include_multiplicative=args.include_multiplicative
    )
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
    dataset = _load_dataset(args)
    if args.label is not None:
        images = dataset.images[dataset.class_indices(args.label)]
    else:
        images = dataset.images
    count = min(args.count, images.shape[0])
    if count == 0:
        raise ConfigError("no images to render")
    tiles = [images[i].reshape(dataset.height, dataset.width) for i in range(count)]
    render_grid(tiles, args.columns, args.out)
    print(f"wrote {args.out} ({count} images)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentpoison",
        description="Train, attack and evaluate a small VAE through its latent space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic two-class dataset as IDX files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    _add_dataclass_flags(p, GenDataArgs())
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-vae", help="train the encoder/decoder pair")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--recon-classifier", help="classifier checkpoint for the reconstruction term")
    _add_dataclass_flags(p, TrainConfig())
    p.set_defaults(func=cmd_train_vae)

    p = sub.add_parser("train-classifier", help="train a binary pixel classifier")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--role", choices=("attack", "eval"), required=True)
    p.add_argument("--config")
    _add_dataclass_flags(p, TrainConfig())
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("learn-attack", help="learn the constant latent perturbation")
    p.add_argument("--mode", choices=("independent", "poisoning", "poisoning+class"),
                   required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--vae", help="VAE checkpoint (independent mode)")
    p.add_argument("--classifier", help="classifier checkpoint (independent mode)")
    p.add_argument("--sweep", action="store_true",
                   help=f"repeat for reg weights {REG_WEIGHT_SWEEP}")
    # VAE flags for the poisoning modes; all land in args.vae_<TrainConfig field>
    p.add_argument("--vae-epochs", type=int, default=None, help="poisoning modes")
    p.add_argument("--vae-lr", type=float, default=None, help="poisoning modes")
    p.add_argument("--vae-seed", type=int, default=None, help="poisoning modes")
    p.add_argument("--kl-weight", dest="vae_kl_weight", type=float, default=None)
    p.add_argument("--recon-class-weight", dest="vae_recon_class_weight", type=float,
                   default=None)
    p.add_argument("--latent-dim", dest="vae_latent_dim", type=int, default=None)
    _add_dataclass_flags(p, AttackConfig())
    p.set_defaults(func=cmd_learn_attack)

    p = sub.add_parser("evaluate", help="score a perturbation and write the report")
    p.add_argument("--vae", required=True)
    p.add_argument("--perturbation", required=True)
    p.add_argument("--classifier", required=True, help="eval-role classifier checkpoint")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-grid", help="run the attack-mode by norm-order experiment grid")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--include-multiplicative", action="store_true")
    _add_dataclass_flags(p, ExperimentPlan(), skip=GRID_FIXED)
    p.set_defaults(func=cmd_run_grid)

    p = sub.add_parser("render", help="tile IDX images into a PGM grid")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--columns", type=int, default=4)
    p.add_argument("--label", type=int, choices=(0, 1), default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
