"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The cross-plan
criteria share one execution of the default additive experiment grid
(3 attack modes by L1/L2), which dominates the runtime.
"""

import math
import time

import numpy as np

from latentpoison import autodiff as ad
from latentpoison.attack import (
    Perturbation,
    attack_loss,
    tamper,
)
from latentpoison.autodiff import Tensor
from latentpoison.checkpoint import (
    CheckpointHashError,
    load_checkpoint,
    save_checkpoint,
)
from latentpoison.evaluation import PRIOR_INTERVAL_HALFWIDTH, detection_probability
from latentpoison.experiment import ExperimentPlan, run_experiment
from latentpoison.models import (
    ClassifierParams,
    VaeParams,
    classify,
    decode,
    encode,
    vae_loss,
)
from gradcheck import grad_check

GRAD_CHECK_HIDDEN = (16, 12)
GRAD_CHECK_CLASSIFIER_HIDDEN = (12, 8)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _row(report, name):
    return report.row(name).mean


# --- criterion 1: gradient correctness ---------------------------------


def _build_vae_objective(rng):
    image_dim, latent_dim, batch = 64, 8, 4
    vae = VaeParams.initialize(image_dim, latent_dim, rng, hidden=GRAD_CHECK_HIDDEN)
    x = rng.uniform(0, 1, (batch, image_dim))
    noise = rng.standard_normal((batch, latent_dim))

    def loss_fn():
        mu, log_var = encode(Tensor(x), vae)
        z = mu + ad.exp(log_var * 0.5) * Tensor(noise)
        return vae_loss(x, decode(z, vae), mu, log_var, 0.1)

    return loss_fn, vae.parameters()


def _build_classifier_objective(rng):
    image_dim, batch = 64, 4
    clf = ClassifierParams.initialize(
        image_dim, rng, role="attack", hidden=GRAD_CHECK_CLASSIFIER_HIDDEN
    )
    x = Tensor(rng.uniform(0, 1, (batch, image_dim)), name="x")
    targets = (rng.uniform(size=(batch, 1)) > 0.5).astype(float)

    def loss_fn():
        return ad.bce(classify(x, clf), targets)

    return loss_fn, [x] + clf.parameters()


def _build_attack_objective(norm_order):
    def build(rng):
        image_dim, latent_dim, batch = 64, 8, 4
        vae = VaeParams.initialize(image_dim, latent_dim, rng, hidden=GRAD_CHECK_HIDDEN)
        clf = ClassifierParams.initialize(
            image_dim, rng, role="attack", hidden=GRAD_CHECK_CLASSIFIER_HIDDEN
        )
        x = Tensor(rng.uniform(0, 1, (batch, image_dim)), name="x")
        labels = np.array([0, 1, 0, 1])
        delta = Tensor(rng.normal(0.0, 0.5, latent_dim), name="delta")

        sign = Tensor((1.0 - 2.0 * labels).reshape(-1, 1))

        def loss_fn():
            mu, _ = encode(x, vae)
            tampered = mu + sign * delta
            scores = classify(decode(tampered, vae), clf)
            return attack_loss(scores, labels, [delta], norm_order, 0.01)

        # the input too, so every parent of every network chain is checked
        return loss_fn, [delta, x] + vae.parameters() + clf.parameters()

    return build


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    errors = {
        "vae objective": grad_check(_build_vae_objective, seed=42, fd_step=1e-5),
        "classifier objective": grad_check(_build_classifier_objective, seed=42, fd_step=1e-5),
        "attack objective (L2)": grad_check(_build_attack_objective(2), seed=42, fd_step=1e-5),
        "attack objective (L1)": grad_check(_build_attack_objective(1), seed=42, fd_step=1e-5),
    }
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 10.0
    detail = (
        "max relative gradient error "
        + ", ".join(f"{k} {v:.2e}" for k, v in errors.items())
        + f" (bound 1e-4), {elapsed:.1f}s (bound 10s)"
    )
    _verdict(1, ok, detail)


# --- criterion 2: detection-probability formula -------------------------


def test_criterion_02_detection_probability():
    start = time.perf_counter()
    printed = {1.0: 0.04, 2.0: 0.2, 5.0: 0.98}
    printed_ok = all(
        abs(detection_probability(shift) - value) <= 0.01 for shift, value in printed.items()
    )
    rng = np.random.default_rng(20_240_817)
    draws = rng.standard_normal(1_000_000)
    mc_ok, worst_ratio = True, 0.0
    for shift in (0.0, 0.5, 1.0, 2.0, 5.0):
        outside = np.abs(draws + shift) > PRIOR_INTERVAL_HALFWIDTH
        estimate = float(outside.mean())
        se = math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / draws.size)
        deviation = abs(detection_probability(shift) - estimate)
        worst_ratio = max(worst_ratio, deviation / (3 * se))
        mc_ok = mc_ok and deviation <= 3 * se
    elapsed = time.perf_counter() - start
    ok = printed_ok and mc_ok and elapsed < 5.0
    _verdict(
        2,
        ok,
        f"printed values within 0.01: {printed_ok}; Monte-Carlo worst deviation "
        f"{worst_ratio:.2f} of 3 standard errors; {elapsed:.1f}s (bound 5s)",
    )


# --- criterion 3: KL closed form vs Monte-Carlo -------------------------


def test_criterion_03_kl_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    samples = 1_000_000
    ok, worst_ratio = True, 0.0
    for _ in range(5):
        dims = int(rng.integers(1, 4))
        mu = rng.uniform(-2, 2, dims)
        log_var = rng.uniform(-2, 1, dims)
        sd = np.exp(log_var / 2)
        z = mu + sd * rng.standard_normal((samples, dims))
        log_q = -0.5 * ((z - mu) / sd) ** 2 - np.log(sd)
        log_p = -0.5 * z**2
        contrib = (log_q - log_p).sum(axis=1)
        estimate = float(contrib.mean())
        se = float(contrib.std() / math.sqrt(samples))
        closed = float(
            ad.kl_standard_normal(Tensor(mu.reshape(1, -1)), Tensor(log_var.reshape(1, -1))).data
        )
        deviation = abs(closed - estimate)
        worst_ratio = max(worst_ratio, deviation / (3 * se))
        ok = ok and deviation <= 3 * se
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(
        3,
        ok,
        f"5 random (mean, log-variance) pairs, worst deviation {worst_ratio:.2f} "
        f"of 3 standard errors at 1e6 samples; {elapsed:.1f}s (bound 30s)",
    )


# --- criteria 4-6, 10: the default additive grid ------------------------


def test_criterion_04_attack_success(additive_grid):
    plan, report, elapsed = additive_grid["entries"][("independent", 2)]
    attacked = (_row(report, "attacked_0to1"), _row(report, "attacked_1to0"))
    recon = (_row(report, "reconstruction_class1"), _row(report, "reconstruction_class0"))
    ok = all(v >= 0.9 for v in attacked) and all(v >= 0.7 for v in recon) and elapsed < 300
    _verdict(
        4,
        ok,
        f"independent/additive/L2: tampered confidence {attacked[0]:.3f}/{attacked[1]:.3f} "
        f"(bound 0.9), reconstruction confidence {recon[0]:.3f}/{recon[1]:.3f} (bound 0.7), "
        f"{elapsed:.0f}s (bound 300s)",
    )


def test_criterion_05_stealth_gap(additive_grid):
    worst_by_plan = {
        key: max(abs(report.epsilon_plus), abs(report.epsilon_minus))
        for key, (_, report, _) in additive_grid["entries"].items()
    }
    best_key = min(worst_by_plan, key=worst_by_plan.get)
    best = worst_by_plan[best_key]
    total = additive_grid["total_seconds"]
    ok = best <= 0.20 and total < 1200
    _verdict(
        5,
        ok,
        f"best plan {best_key[0]}/L{best_key[1]} has both |epsilon| <= {best:.4f} "
        f"(bound 0.20); grid total {total:.0f}s (bound 1200s)",
    )


def test_criterion_06_l1_sparsity_ordering(additive_grid):
    entries = additive_grid["entries"]
    pairs = {}
    ok = True
    for mode in ("independent", "poisoning", "poisoning+class"):
        sparse_l1 = entries[(mode, 1)][1].sparsity_fraction
        sparse_l2 = entries[(mode, 2)][1].sparsity_fraction
        pairs[mode] = (sparse_l1, sparse_l2)
        ok = ok and sparse_l1 > sparse_l2
    _verdict(
        6,
        ok,
        "sparsity fraction L1 > L2 per mode: "
        + ", ".join(f"{m} {a:.3f} > {b:.3f}" for m, (a, b) in pairs.items()),
    )


def test_criterion_10_poisoning_class_discriminativeness(additive_grid):
    entries = additive_grid["entries"]
    boosted = entries[("poisoning+class", 2)][1]
    plain = entries[("poisoning", 2)][1]

    def recon_pooled(report):
        return 0.5 * (_row(report, "reconstruction_class0") + _row(report, "reconstruction_class1"))

    ok = (
        recon_pooled(boosted) >= recon_pooled(plain)
        and _row(boosted, "reconstruction_class0") >= _row(plain, "reconstruction_class0")
    )
    _verdict(
        10,
        ok,
        f"reconstruction confidence poisoning+class {recon_pooled(boosted):.4f} >= "
        f"poisoning {recon_pooled(plain):.4f} (pooled; class-0 rows "
        f"{_row(boosted, 'reconstruction_class0'):.4f} >= "
        f"{_row(plain, 'reconstruction_class0'):.4f})",
    )


# --- criterion 7: transform algebra -------------------------------------


def test_criterion_07_transform_algebra():
    start = time.perf_counter()
    lattice = 2.0**-26
    rng = np.random.default_rng(99)
    latents = rng.integers(-(2**28), 2**28, size=(1000, 32)) * lattice
    delta = rng.integers(-(2**28), 2**28, size=32) * lattice
    forward = tamper(latents, np.zeros(1000), [delta], "additive")  # label 0: "0to1"
    recovered = tamper(forward, np.ones(1000), [delta], "additive")  # label 1: "1to0"
    additive_ok = np.array_equal(recovered.data, latents)
    identity = tamper(latents, np.zeros(1000), [np.zeros(32)], "multiplicative")
    identity_ok = np.array_equal(identity.data, latents)
    elapsed = time.perf_counter() - start
    ok = additive_ok and identity_ok and elapsed < 1.0
    _verdict(
        7,
        ok,
        f"additive inverse bitwise on 1000 lattice-valued latent vectors: {additive_ok}; "
        f"multiplicative identity bitwise: {identity_ok}; {elapsed:.2f}s (bound 1s)",
    )


# --- criterion 8: determinism --------------------------------------------


def test_criterion_08_determinism(tmp_path):
    plan = ExperimentPlan(
        mode="poisoning",
        family="additive",
        norm_order=1,
        sample_count=200,
        width=10,
        height=10,
        test_count=40,
        vae_epochs=4,
        attack_epochs=4,
        latent_dim=8,
        seed=123,
        data_seed=5,
        out_dir=str(tmp_path / "run"),
    )
    run_experiment(plan)
    outputs = sorted(p for p in (tmp_path / "run").iterdir())
    first = {p.name: p.read_bytes() for p in outputs}
    run_experiment(plan)
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
    same = set(first) == set(second) and all(first[n] == second[n] for n in first)
    _verdict(
        8,
        same and len(first) >= 10,
        f"rerun of the same plan reproduced {len(first)} output files byte-identically: {same}",
    )


# --- criterion 9: persistence --------------------------------------------


def test_criterion_09_persistence(tmp_path, tiny_vae, tiny_classifiers):
    attack_clf, _ = tiny_classifiers
    perturbation = Perturbation(
        np.random.default_rng(3).standard_normal(tiny_vae.latent_dim),
        2,
        "additive",
        0.01,
        "independent",
    )
    artifacts = {
        "vae": (tiny_vae, lambda a: a.parameters()),
        "classifier": (attack_clf, lambda a: a.parameters()),
        "perturbation": (perturbation, lambda a: [Tensor(a.delta)]),
    }
    round_trip_ok = True
    for kind, (artifact, params) in artifacts.items():
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(artifact, path, config={"seed": 1})
        loaded, _ = load_checkpoint(path, expect_kind=kind)
        for a, b in zip(params(artifact), params(loaded)):
            round_trip_ok = round_trip_ok and np.array_equal(a.data, b.data)
    corrupted = tmp_path / "corrupt.ckpt"
    save_checkpoint(perturbation, corrupted)
    blob = bytearray(corrupted.read_bytes())
    blob[-20] ^= 0x01
    corrupted.write_bytes(bytes(blob))
    try:
        load_checkpoint(corrupted)
        rejected = False
    except CheckpointHashError:
        rejected = True
    _verdict(
        9,
        round_trip_ok and rejected,
        f"bitwise round trip for all three artifact kinds: {round_trip_ok}; "
        f"corrupted payload rejected: {rejected}",
    )


# --- supplementary checks tied to the default grid run ------------------


class TestAcceptanceRunProperties:
    def test_pixel_diff_concentrates_on_class_feature(self, additive_grid):
        from latentpoison.data import feature_mask
        from latentpoison.evaluation import decoded_view
        from latentpoison.experiment import make_dataset

        plan, _, _ = additive_grid["entries"][("independent", 2)]
        vae, _ = load_checkpoint(f"{plan.out_dir}/vae.ckpt", expect_kind="vae")
        pert, _ = load_checkpoint(f"{plan.out_dir}/perturbation.ckpt", expect_kind="perturbation")
        _, test_set = make_dataset(plan)
        mask = feature_mask(plan.width, plan.height).reshape(-1)
        for direction in ("0to1", "1to0"):
            _, recon, attacked = decoded_view(vae, pert, test_set, direction)
            raw = attacked - recon
            inside = np.abs(raw[:, mask]).sum() / np.abs(raw).sum()
            assert inside >= 0.6

    def test_eval_classifier_accuracy(self, additive_grid):
        from latentpoison.experiment import make_dataset

        plan, _, _ = additive_grid["entries"][("independent", 2)]
        clf, _ = load_checkpoint(f"{plan.out_dir}/eval_classifier.ckpt", expect_kind="classifier")
        _, test_set = make_dataset(plan)
        scores = classify(test_set.images, clf).data[:, 0]
        accuracy = ((scores > 0.5).astype(int) == test_set.labels).mean()
        assert accuracy >= 0.95

    def test_encoder_mean_stays_centered(self, additive_grid):
        from latentpoison.experiment import make_dataset

        plan, _, _ = additive_grid["entries"][("independent", 2)]
        vae, _ = load_checkpoint(f"{plan.out_dir}/vae.ckpt", expect_kind="vae")
        _, test_set = make_dataset(plan)
        mu, log_var = encode(test_set.images, vae)
        per_dim_mean = mu.data.mean(axis=0)
        assert np.all(np.abs(per_dim_mean) <= 0.5)
        # aggregate posterior variance per dimension pooled across dims:
        # the prior term keeps it near 1
        aggregate = mu.data.var(axis=0) + np.exp(log_var.data).mean(axis=0)
        assert 0.1 <= aggregate.mean() <= 3.0

    def test_attacked_rows_at_least_reconstruction_rows(self, additive_grid):
        # ties within 0.02 tolerated: both sides saturate near 1.0 here
        plan, report, _ = additive_grid["entries"][("independent", 2)]
        assert _row(report, "attacked_0to1") >= _row(report, "reconstruction_class1") - 0.02
        assert _row(report, "attacked_1to0") >= _row(report, "reconstruction_class0") - 0.02

    def test_epsilon_magnitudes_within_expected_band(self, additive_grid):
        for _, report, _ in additive_grid["entries"].values():
            assert -1.0 <= report.epsilon_plus <= 1.0
            assert -1.0 <= report.epsilon_minus <= 1.0
