"""In-memory span tracing of the latentpoison layers, installed from outside.

The package has no tracing hooks of its own, so :class:`Tracer` wraps the
public functions of each layer module and rebinds every name that refers
to them in every ``latentpoison`` module. Modules import each other's
functions by name (``from .models import encode``), so wrapping only
``models.encode`` would miss the calls ``attack.py`` makes; rebinding
each reference catches them where the caller looks them up.

A span is ``[name, start_ns, end_ns, parent_index]``. Spans stay in
memory while a segment runs; :meth:`Tracer.collect` turns a segment into
additive raw figures, and :func:`finish` turns summed raw figures into
layer figures.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "latentpoison"
LAYERS = ("data", "models", "autodiff", "attack", "evaluation", "checkpoint", "reporting", "experiment")

# autodiff's tensor operations run dozens of times per batch; only these
# two become spans there, and matmul is counted without a span.
AUTODIFF_SPANS = ("backward", "adam_step")

# Reporting functions that write files; their top-level spans make up
# reporting.write_s.
_WRITERS = ("write_report", "write_delta", "write_pgm", "render_grid")

# name -> unit of every figure a traced segment yields, in report order.
LAYER_METRICS = {
    "experiment.plan_s": "s",
    "experiment.self_s": "s",
    "experiment.calls": "count",
    "data.generate_s": "s",
    "data.self_s": "s",
    "data.calls": "count",
    "models.train_vae_s": "s",
    "models.vae_steps": "count",
    "models.train_classifier_s": "s",
    "models.train_classifier_calls": "count",
    "models.self_s": "s",
    "models.calls": "count",
    "attack.learn_s": "s",
    "attack.self_s": "s",
    "attack.calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.backward_calls": "count",
    "autodiff.adam_step_s": "s",
    "autodiff.adam_steps": "count",
    "autodiff.adam_bytes": "bytes",
    "autodiff.matmul_calls": "count",
    "autodiff.matmul_gflop": "gflop",
    "autodiff.grad_useful_ratio": "ratio",
    "autodiff.self_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.pixel_diff_s": "s",
    "evaluation.self_s": "s",
    "evaluation.calls": "count",
    "checkpoint.save_s": "s",
    "checkpoint.bytes_written": "bytes",
    "checkpoint.self_s": "s",
    "checkpoint.calls": "count",
    "reporting.write_s": "s",
    "reporting.bytes_written": "bytes",
    "reporting.self_s": "s",
    "reporting.calls": "count",
    "trace.spans": "count",
}
# Every per-layer metric a traced run reports: the figures of its passes
# and the overhead of tracing them.
METRICS = {**LAYER_METRICS, "trace.overhead_s": "s"}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Wraps the layer functions while installed and records spans and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.segments: list[tuple[str, list[list]]] = []
        self._stack: list[int] = []
        self._params: dict[int, object] = {}  # id -> parameter tensor seen this segment
        self._owners: dict[int, object] = {}  # id -> parameter container already registered
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        package = sys.modules[PACKAGE]
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self._param_types = (package.models.VaeParams, package.models.ClassifierParams)
        self._tensor_type = package.autodiff.Tensor
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                if wrapper is not None:
                    replacements[id(fn)] = wrapper
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)
        adam = package.autodiff.Adam
        original_init = adam.__init__

        def init(adam_self, params, lr, **hyper):
            original_init(adam_self, params, lr, **hyper)
            for t in adam_self.params:
                self._params[id(t)] = t

        self._undo.append((adam, "__init__", original_init))
        adam.__init__ = init

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        if layer == "autodiff":
            if name == "matmul":
                return self._matmul(fn)
            if name not in AUTODIFF_SPANS:
                return None
        before = after = None
        if full == "autodiff.backward":
            before, after = self._grads_before, self._grads_after
        elif full == "autodiff.adam_step":
            before = self._adam_counts
        elif full == "checkpoint.save_checkpoint":
            after = self._file_counter("checkpoint.bytes_written")
        elif name in ("write_report", "write_delta", "write_pgm"):
            after = self._file_counter("reporting.bytes_written")
        register = layer != "autodiff"
        spans, stack, counter = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if register:
                self._register(args)
            state = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append([full, counter(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = counter()
            if after is not None:
                after(args, kwargs, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def _matmul(self, fn):
        counters, tensor = self.counters, self._tensor_type

        def wrapper(a, b):
            result = fn(a, b)
            m, n = result.data.shape
            k = (a.data if isinstance(a, tensor) else a).shape[1]
            counters["matmul_calls"] += 1
            counters["matmul_flop"] += 2 * m * k * n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _register(self, args) -> None:
        for a in args:
            if isinstance(a, self._param_types) and id(a) not in self._owners:
                self._owners[id(a)] = a
                for t in a.parameters():
                    self._params[id(t)] = t

    def _grads_before(self, args, kwargs):
        tensors = list(self._params.values())
        return tensors, [t.grad for t in tensors]

    def _grads_after(self, args, kwargs, state) -> None:
        tensors, grads = state
        self.counters["grad_filled"] += sum(
            t.grad.size for t, g in zip(tensors, grads) if t.grad is not g and t.grad is not None
        )

    def _adam_counts(self, args, kwargs):
        # the gradients an Adam step consumes are the useful ones
        elements = sum(p.data.size for p in _arg(args, kwargs, 0, "params"))
        self.counters["grad_useful"] += elements
        # parameter, gradient and both moments, 8 bytes per element each
        self.counters["adam_bytes"] += 32 * elements

    def _file_counter(self, key: str):
        # every counted writer takes the file path as its second argument
        def count(args, kwargs, state):
            self.counters[key] += os.path.getsize(_arg(args, kwargs, 1, "path"))

        return count

    # -- segments -----------------------------------------------------

    def collect(self, segment: str) -> dict:
        """Close the current segment and return its additive raw figures."""
        raw = raw_figures(self.spans, self.counters)
        # installed wrappers hold these containers, so empty them in place
        self.segments.append((segment, list(self.spans)))
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._params.clear()
        self._owners.clear()
        return raw

    def write(self, path, header: dict) -> None:
        """Write every recorded span as one JSON line, times relative to the first."""
        starts = [s[1] for _, spans in self.segments for s in spans]
        origin = min(starts) if starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for segment, spans in self.segments:
                for name, start, end, parent in spans:
                    fh.write(json.dumps([segment, name, start - origin, end - origin, parent]) + "\n")


def raw_figures(spans: list[list], counters: Counter) -> dict:
    """Additive per-segment figures: times in ns, counts, bytes and flops."""
    raw: Counter = Counter()
    child = [0] * len(spans)
    ancestors: list[frozenset] = []
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            ancestors.append(ancestors[parent] | {spans[parent][0].split(".", 1)[0]})
        else:
            ancestors.append(frozenset())
    for i, (name, start, end, parent) in enumerate(spans):
        layer, fn = name.split(".", 1)
        duration = end - start
        raw[f"{layer}.self_ns"] += duration - child[i]
        raw[f"{layer}.calls"] += 1
        top = layer not in ancestors[i]
        if layer == "experiment" and top:
            raw["experiment.plan_ns"] += duration
        elif name == "data.generate_synthetic":
            raw["data.generate_ns"] += duration
        elif name in ("models.train_vae", "models.train_classifier", "autodiff.backward",
                      "autodiff.adam_step", "evaluation.evaluate_attack", "evaluation.pixel_diff",
                      "checkpoint.save_checkpoint"):
            raw[f"{name}.ns"] += duration
            raw[f"{name}.calls"] += 1
        elif name == "models.vae_batch_loss":
            raw["models.vae_steps"] += 1
        elif name.startswith("attack.learn_attack_"):
            raw["attack.learn_ns"] += duration - child[i]
        elif layer == "reporting" and top and fn in _WRITERS:
            raw["reporting.write_ns"] += duration
    raw["trace.spans"] = len(spans)
    raw.update(counters)
    return dict(raw)


def finish(raw: dict) -> dict:
    """Layer figures, as ``{name: {"value", "unit"}}``, from summed raw figures."""
    def s(key: str) -> float:
        return raw.get(key, 0) / 1e9

    filled = raw.get("grad_filled", 0)
    values = {
        "experiment.plan_s": s("experiment.plan_ns"),
        "data.generate_s": s("data.generate_ns"),
        "models.train_vae_s": s("models.train_vae.ns"),
        "models.vae_steps": raw.get("models.vae_steps", 0),
        "models.train_classifier_s": s("models.train_classifier.ns"),
        "models.train_classifier_calls": raw.get("models.train_classifier.calls", 0),
        "attack.learn_s": s("attack.learn_ns"),
        "autodiff.backward_s": s("autodiff.backward.ns"),
        "autodiff.backward_calls": raw.get("autodiff.backward.calls", 0),
        "autodiff.adam_step_s": s("autodiff.adam_step.ns"),
        "autodiff.adam_steps": raw.get("autodiff.adam_step.calls", 0),
        "autodiff.adam_bytes": raw.get("adam_bytes", 0),
        "autodiff.matmul_calls": raw.get("matmul_calls", 0),
        "autodiff.matmul_gflop": raw.get("matmul_flop", 0) / 1e9,
        "autodiff.grad_useful_ratio": raw.get("grad_useful", 0) / filled if filled else 0.0,
        "evaluation.evaluate_s": s("evaluation.evaluate_attack.ns"),
        "evaluation.pixel_diff_s": s("evaluation.pixel_diff.ns"),
        "checkpoint.save_s": s("checkpoint.save_checkpoint.ns"),
        "checkpoint.bytes_written": raw.get("checkpoint.bytes_written", 0),
        "reporting.write_s": s("reporting.write_ns"),
        "reporting.bytes_written": raw.get("reporting.bytes_written", 0),
        "trace.spans": raw.get("trace.spans", 0),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = s(f"{layer}.self_ns")
        if f"{layer}.calls" in LAYER_METRICS:
            values[f"{layer}.calls"] = raw.get(f"{layer}.calls", 0)
    out = {}
    for name, unit in LAYER_METRICS.items():
        value = values[name]
        if unit in ("count", "bytes") and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
