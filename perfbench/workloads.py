"""The benchmark workloads and the loop that times and checks them.

Each workload has a set-up, a fixed list of operations that make up one
pass, and a digest of each operation's outputs. The runner repeats
passes until the measuring time is used up, timing every operation and
checking every output against the golden digest.

* ``grid``: the six default additive plans (3 modes x L1/L2) through
  ``experiment.run_experiment``, one after another. An operation is a plan.
* ``attack_frozen``: ``attack.learn_attack_independent`` against a VAE and
  attack classifier trained in set-up, for additive L2, additive L1 and
  multiplicative L2. An operation is one attack call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from latentpoison import attack, checkpoint, evaluation, experiment, reporting

import digest
from tracing import Tracer, finish


@dataclass(frozen=True)
class Scale:
    """Input sizes. The default grid's 150/80 epochs are scaled by 1/75."""

    sample_count: int = 2100  # 2000 train + 100 test
    test_count: int = 100
    width: int = 16
    height: int = 16
    vae_epochs: int = 2
    attack_epochs: int = 1
    frozen_attack_epochs: int = 6
    setup_repeats: int = 5


# Seeds map onto this many input variants, each with its own golden digest.
VARIANTS = 8


def base_plan(scale: Scale, variant: int, out_dir: Path, **changes) -> experiment.ExperimentPlan:
    """The default plan at benchmark scale; variant 0 keeps the default seeds."""
    plan = experiment.ExperimentPlan(
        sample_count=scale.sample_count,
        test_count=scale.test_count,
        width=scale.width,
        height=scale.height,
        vae_epochs=scale.vae_epochs,
        attack_epochs=scale.attack_epochs,
        data_seed=7 + variant,
        seed=variant,
        out_dir=str(out_dir),
    )
    return dataclasses.replace(plan, **changes)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Grid:
    name = "grid"

    def setup(self, scale: Scale, variant: int, work: Path) -> dict:
        # one short plan warms every code path before timing
        warm = base_plan(scale, variant, _fresh(work / "warm-up"), vae_epochs=1, attack_epochs=1)
        experiment.run_experiment(warm)
        shutil.rmtree(warm.out_dir)
        plans = experiment.grid_plans(work / "grid", base_plan(scale, variant, work / "grid"))
        return {"plans": {Path(p.out_dir).name: p for p in plans}}

    def op_names(self, state: dict) -> list[str]:
        return sorted(state["plans"])

    def run_op(self, state: dict, name: str):
        return experiment.run_experiment(state["plans"][name])

    def digest_op(self, state: dict, name: str, output) -> dict:
        out = Path(state["plans"][name].out_dir)
        try:
            return digest.plan_dir_digest(out)
        finally:
            shutil.rmtree(out)


class AttackFrozen:
    name = "attack_frozen"

    def setup(self, scale: Scale, variant: int, work: Path) -> dict:
        """Run one independent plan and load its artifacts back, as ``learn-attack`` does."""
        plan = base_plan(scale, variant, _fresh(work / "pretrained"))
        experiment.run_experiment(plan)
        out = Path(plan.out_dir)
        train_set, test_set = experiment.make_dataset(plan)
        base = dataclasses.replace(plan.attack_config(), epochs=scale.frozen_attack_epochs)
        return {
            "train": train_set,
            "test": test_set,
            "vae": checkpoint.load_checkpoint(out / "vae.ckpt", expect_kind="vae")[0],
            "attack_classifier": checkpoint.load_checkpoint(
                out / "attack_classifier.ckpt", expect_kind="classifier"
            )[0],
            "eval_classifier": checkpoint.load_checkpoint(
                out / "eval_classifier.ckpt", expect_kind="classifier"
            )[0],
            "configs": {
                "additive_l2": dataclasses.replace(base, family="additive", norm_order=2),
                "additive_l1": dataclasses.replace(base, family="additive", norm_order=1),
                "multiplicative_l2": dataclasses.replace(base, family="multiplicative", norm_order=2),
            },
        }

    def op_names(self, state: dict) -> list[str]:
        return sorted(state["configs"])

    def run_op(self, state: dict, name: str):
        return attack.learn_attack_independent(
            state["vae"], state["attack_classifier"], state["train"], state["configs"][name]
        )

    def digest_op(self, state: dict, name: str, output) -> dict:
        report = evaluation.evaluate_attack(
            state["vae"], output, state["eval_classifier"], state["test"], mode="independent"
        )
        out = {f"report.{k}": v for k, v in digest.report_digest(reporting.report_to_csv(report)).items()}
        out["delta"] = digest.artifact_digest(output)
        return out


WORKLOADS = {w.name: w for w in (Grid(), AttackFrozen())}


@dataclass
class PassResult:
    op_seconds: list[float]
    attempted: int
    failed: int

    @property
    def wall(self) -> float:
        return sum(self.op_seconds)


def run_pass(workload, state: dict, names: list[str], expected: dict | None,
             record: dict | None = None, around=contextlib.nullcontext()) -> PassResult:
    """Run and check every operation of one pass.

    With ``expected`` set, each output digest is compared with it; an
    operation fails when it raises or its digest differs. With ``record``
    set, digests are stored there instead. ``around`` is entered around
    each operation's body only, not around its digest check. Every
    operation's time counts, a failed one's too, so a run that fails early
    does not read faster.
    """
    result = PassResult([], 0, 0)
    for name in names:
        result.attempted += 1
        try:
            with around:
                start = time.perf_counter()
                try:
                    output = workload.run_op(state, name)
                finally:
                    result.op_seconds.append(time.perf_counter() - start)
            actual = workload.digest_op(state, name, output)
        except Exception:
            traceback.print_exc()
            result.failed += 1
            continue
        if record is not None:
            record[name] = actual
        if expected is not None:
            wrong = digest.mismatches(actual, expected.get(name, {}))
            if wrong:
                print(f"{workload.name}/{name}: digest differs in {', '.join(wrong)}", file=sys.stderr)
                result.failed += 1
    return result


def measure(workload, scale: Scale, seed: int, seconds: float, work: Path,
            expected: dict) -> tuple[dict, list[PassResult], dict]:
    """Untraced run: repeated set-up, then passes until ``seconds`` have passed.

    Returns the end-to-end metrics, the passes, and the operation sample count.
    """
    setup_times = []
    for _ in range(scale.setup_repeats):
        start = time.perf_counter()
        state = workload.setup(scale, seed % VARIANTS, work)
        setup_times.append(time.perf_counter() - start)
    rng = random.Random(seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        names = workload.op_names(state)
        rng.shuffle(names)
        passes.append(run_pass(workload, state, names, expected))
    ops = [t for p in passes for t in p.op_seconds]
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median([p.wall for p in passes]), "unit": "s"},
        "op_s_p50": {"value": statistics.median(ops), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    return metrics, passes, {"op_samples": len(ops)}


def measure_traced(workload, scale: Scale, seed: int, seconds: float, work: Path,
                   expected: dict) -> tuple[dict, list[PassResult], Tracer, dict]:
    """Traced run: one traced set-up, then alternating untraced and traced passes.

    The per-layer metrics are the mean traced pass, counting only the
    operations' bodies: neither set-up nor digest checks are traced into
    them. The set-up's own layer figures are returned beside them.
    """
    tracer = Tracer()
    with tracer:
        state = workload.setup(scale, seed % VARIANTS, work)
    setup_figures = finish(tracer.collect("setup"))
    rng = random.Random(seed)
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    pass_raws: list[dict] = []
    start = time.perf_counter()
    while not plain or not traced or time.perf_counter() - start < seconds:
        names = workload.op_names(state)
        rng.shuffle(names)
        if len(plain) <= len(traced):
            plain.append(run_pass(workload, state, names, expected))
        else:
            traced.append(run_pass(workload, state, names, expected, around=tracer))
            pass_raws.append(tracer.collect(f"pass-{len(traced)}"))
    raw = {key: sum(r.get(key, 0) for r in pass_raws) / len(pass_raws)
           for key in {k for r in pass_raws for k in r}}
    metrics = finish(raw)
    overhead = statistics.median([p.wall for p in traced]) - statistics.median([p.wall for p in plain])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, plain + traced, tracer, setup_figures


def record_golden(workload, scale: Scale, variant: int, work: Path) -> dict:
    """Digests of one pass at the given input variant."""
    state = workload.setup(scale, variant, work)
    record: dict = {}
    result = run_pass(workload, state, sorted(set(workload.op_names(state))), None, record)
    if result.failed:
        raise RuntimeError(f"{workload.name}: {result.failed} operations failed while recording")
    return record
