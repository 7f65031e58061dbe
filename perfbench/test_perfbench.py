"""Tests of the benchmark's own code, at a minimal input size.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import LAYER_METRICS, METRICS, Tracer  # noqa: E402

import latentpoison  # noqa: E402

TINY = workloads.Scale(
    sample_count=64,
    test_count=16,
    width=8,
    height=8,
    vae_epochs=1,
    attack_epochs=1,
    frozen_attack_epochs=1,
    setup_repeats=1,
)
COUNT_UNITS = ("count", "bytes", "gflop", "ratio")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def golden(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(request.param)
    return workload, workloads.record_golden(workload, TINY, 0, work), work


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == METRICS


def test_untraced_pass_emits_every_end_to_end_metric(golden):
    workload, expected, work = golden
    metrics, passes, info = workloads.measure(workload, TINY, 0, 0.0, work / "run", expected)
    assert sum(p.failed for p in passes) == 0
    assert info["op_samples"] == sum(p.attempted for p in passes) > 0
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_pass_emits_every_layer_metric_and_counts_repeat(golden):
    workload, expected, work = golden
    runs = [
        workloads.measure_traced(workload, TINY, seed, 0.0, work / f"trace{seed}", expected)
        for seed in (0, 8)
    ]
    for metrics, passes, _, setup in runs:
        assert sum(p.failed for p in passes) == 0
        assert {name: m["unit"] for name, m in metrics.items()} == METRICS
        assert {name: m["unit"] for name, m in setup.items()} == LAYER_METRICS
    counts = [
        {name: m["value"] for name, m in metrics.items() if m["unit"] in COUNT_UNITS}
        for metrics, _, _, _ in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["autodiff.backward_calls"] > 0
    assert 0 < counts[0]["autodiff.grad_useful_ratio"] <= 1
    # pass figures hold the operations alone: no set-up training, no digest read-back
    setup = runs[0][3]
    assert setup["models.train_classifier_calls"]["value"] > 0
    assert counts[0]["models.train_classifier_calls"] == (12 if workload.name == "grid" else 0)
    assert (counts[0]["evaluation.calls"] > 0) == (workload.name == "grid")


class _Tampered(workloads.AttackFrozen):
    """Changes one perturbation element of one attack's output."""

    def run_op(self, state, name):
        perturbation = super().run_op(state, name)
        if name == "additive_l1":
            perturbation.delta[0] += 1e-3
        return perturbation


def test_altered_output_counts_as_failed(tmp_path):
    workload = _Tampered()
    expected = workloads.record_golden(workloads.AttackFrozen(), TINY, 0, tmp_path / "golden")
    state = workload.setup(TINY, 0, tmp_path / "run")
    result = workloads.run_pass(workload, state, workload.op_names(state), expected)
    assert (result.attempted, result.failed) == (3, 1)
    assert len(result.op_seconds) == 3


def test_altered_file_counts_as_failed(tmp_path):
    workload = workloads.Grid()
    expected = workloads.record_golden(workload, TINY, 0, tmp_path / "golden")
    state = workload.setup(TINY, 0, tmp_path / "run")
    original = workload.run_op

    def run_op(state, name):
        report = original(state, name)
        pgm = Path(state["plans"][name].out_dir) / "attacked_0to1.pgm"
        blob = bytearray(pgm.read_bytes())
        blob[-1] ^= 0xFF
        pgm.write_bytes(bytes(blob))
        return report

    workload.run_op = run_op
    name = workload.op_names(state)[0]
    result = workloads.run_pass(workload, state, [name], expected)
    assert (result.attempted, result.failed) == (1, 1)


def test_tracer_restores_every_binding():
    from latentpoison import attack, autodiff, models

    before = (attack.encode, models.encode, autodiff.backward, autodiff.Adam.__init__)
    with Tracer():
        assert attack.encode is not before[0] and models.encode is not before[1]
        assert attack.encode.__wrapped__ is before[0]
    assert (attack.encode, models.encode, autodiff.backward, autodiff.Adam.__init__) == before
    assert latentpoison.encode is before[1]
