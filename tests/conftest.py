import dataclasses
import time

import pytest

from latentpoison.data import generate_synthetic
from latentpoison.experiment import grid_plans, run_experiment
from latentpoison.models import TrainConfig, train_classifier, train_vae


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    """Mark every test that requests ``additive_grid``, so ``-m "not additive_grid"`` skips it."""
    for item in items:
        if "additive_grid" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.additive_grid)


@pytest.fixture(scope="session")
def tiny_data():
    """60 samples at 8x8, enough to exercise trainers quickly."""
    return generate_synthetic(60, 8, 8, seed=1234)


@pytest.fixture(scope="session")
def tiny_config():
    return TrainConfig(epochs=3, batch_size=16, latent_dim=6, seed=77)


@pytest.fixture(scope="session")
def tiny_vae(tiny_data, tiny_config):
    return train_vae(tiny_data, tiny_config)


@pytest.fixture(scope="session")
def tiny_classifiers(tiny_data, tiny_config):
    attack = train_classifier(tiny_data, tiny_config, role="attack")
    eval_cfg = dataclasses.replace(tiny_config, seed=tiny_config.seed + 1)
    evaluation = train_classifier(tiny_data, eval_cfg, role="eval")
    return attack, evaluation


@pytest.fixture(scope="session")
def additive_grid(tmp_path_factory):
    """The full default additive grid: 3 attack modes by 2 norm orders.

    Shared across the acceptance tests and any test comparing plans; this
    is the expensive fixture (several minutes). Returns per-plan entries
    keyed by (mode, norm_order) holding (plan, report, seconds).
    """
    root = tmp_path_factory.mktemp("grid")
    entries = {}
    total = 0.0
    for plan in grid_plans(root):
        start = time.perf_counter()
        report = run_experiment(plan)
        elapsed = time.perf_counter() - start
        total += elapsed
        entries[(plan.mode, plan.norm_order)] = (plan, report, elapsed)
    return {"entries": entries, "total_seconds": total, "root": root}
