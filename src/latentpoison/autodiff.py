"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Graphs are built functionally: every operation returns a fresh ``Tensor``
that records its parents and, per parent, a closure mapping the output
gradient to that parent's gradient. Parameters are long-lived leaf
tensors; intermediate nodes are rebuilt on every forward pass.
The engine keeps only the ops the package calls: :func:`add`, :func:`mul`,
:func:`exp` and :func:`matmul` (``Tensor`` overloads ``+`` and ``*``),
:func:`mlp`, and the loss nodes :func:`bce`,
:func:`kl_standard_normal` and :func:`lp_penalty`.
:func:`mlp` is the one dense-layer op: a whole chain of affine layers and
their activations is one node, so a network adds one node to the graph.
:func:`backward` differentiates only toward the tensors it is asked about,
so frozen weights cost no gradient work and never need clearing. One
:class:`Adam` object per parameter list holds its moments, step count and
learning rate; the decay rates and epsilon are module constants. Its step
resets the gradients it consumes to ``None``, so a trained network keeps
no second copy of its weights' size.
Everything runs in 64-bit precision so finite-difference gradient checks
at 1e-4 tolerance are meaningful.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

Array = np.ndarray

# Predictions are clamped away from {0, 1} before any log.
BCE_CLAMP = 1e-7

# Sigmoid outputs are kept strictly inside (0, 1) even in deep saturation.
_SIG_FLOOR = 1e-308
_SIG_CEIL = float(np.nextafter(1.0, 0.0))

# Adam's decay rates for the first and second moments, and its denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class ShapeMismatchError(ValueError):
    """Operand shapes cannot combine for the requested operation."""


class Tensor:
    """A float64 array plus its position in a differentiation graph.

    Identity within a graph is plain Python object identity. ``grad`` is
    set by :func:`backward` on the tensors it differentiates toward, each
    call overwrites it, and :meth:`Adam.step` clears it once consumed.
    """

    __slots__ = ("data", "grad", "name", "_parents", "_backward")

    def __init__(self, data, name: str | None = None, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.name = name
        self._parents: tuple[Tensor, ...] = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Tensor{tag} shape={self.data.shape}>"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum out dimensions numpy broadcasting introduced."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, length in enumerate(shape):
        if length == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    back = (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape))
    return Tensor(out, _parents=(a, b), _backward=back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    back = (
        lambda g: _unbroadcast(g * b.data, a.data.shape),
        lambda g: _unbroadcast(g * a.data, b.data.shape),
    )
    return Tensor(out, _parents=(a, b), _backward=back)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"cannot matrix-multiply {a.data.shape} by {b.data.shape}"
        )
    out = a.data @ b.data
    return Tensor(out, _parents=(a, b), _backward=(lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return Tensor(out, _parents=(a,), _backward=(lambda g: g * out,))


def _sigmoid(x: Array) -> Array:
    """Elementwise logistic function, output strictly inside (0, 1)."""
    e = np.exp(-np.abs(x))
    # 1 where x >= 0 (there e <= 1), else e; NaN stays NaN; 0-d inputs stay arrays
    out = np.maximum(e, x >= 0, out=np.empty_like(e))
    out /= 1.0 + e
    np.clip(out, _SIG_FLOOR, _SIG_CEIL, out=out)
    return out


# mlp's activations: the forward map (it may overwrite its input), the gradient through it
_ACTIVATIONS = {"tanh": (lambda z: np.tanh(z, out=z), lambda g, out: g * (1.0 - out * out)),
                "sigmoid": (_sigmoid, lambda g, out: g * out * (1.0 - out)),
                None: (lambda z: z, lambda g, out: g)}


def mlp(x, layers, last) -> Tensor:
    """A dense chain as one node: tanh after each ``(weights, bias)`` layer but the last.

    ``last`` follows the last layer: ``"tanh"``, ``"sigmoid"`` or ``None`` (affine). The
    gradients of the parents ``x, w0, b0, w1, ...`` read one top-down sweep of pre-activation
    gradients per output gradient, so a frozen chain computes only its input's gradient.
    """
    x, layers = _as_tensor(x), [(_as_tensor(w), _as_tensor(b)) for w, b in layers]
    if not layers:
        return x
    acts = [_ACTIVATIONS["tanh"]] * (len(layers) - 1) + [_ACTIVATIONS[last]]
    outs = [x.data]  # each layer's input, then the chain's output
    for i, (w, b) in enumerate(layers):
        h = outs[-1]
        if h.ndim != 2 or w.data.ndim != 2 or h.shape[1] != w.shape[0]:
            raise ShapeMismatchError(f"mlp layer {i}: input {h.shape} vs weights {w.shape}")
        if b.shape != (w.shape[1],):
            raise ShapeMismatchError(f"mlp layer {i}: bias {b.shape} vs weights {w.shape}")
        z = matmul(h, w).data  # the module-level name, so a tracer that rebinds it sees the call
        z += b.data
        outs.append(acts[i][0](z))
    cache = [None, None]  # the output gradient last swept, and its pre-activation gradients

    def sweep(g):
        if cache[0] is not g:
            pre = [acts[-1][1](g, outs[-1])]
            for i in reversed(range(len(layers) - 1)):
                pre.insert(0, acts[i][1](pre[0] @ layers[i + 1][0].data.T, outs[i + 1]))
            cache[:] = g, pre
        return cache[1]

    back = [lambda g: sweep(g)[0] @ layers[0][0].data.T]
    for i, h in enumerate(outs[:-1]):
        back += [lambda g, i=i, h=h: h.T @ sweep(g)[i], lambda g, i=i: sweep(g)[i].sum(axis=0)]
    return Tensor(outs[-1], _parents=(x, *(t for wb in layers for t in wb)), _backward=tuple(back))


def bce(prediction, target) -> Tensor:
    """Mean binary cross-entropy of ``prediction`` against a constant target.

    Predictions are clamped to [BCE_CLAMP, 1 - BCE_CLAMP] before the log;
    the gradient is zero where the clamp is active, matching the clamped
    forward value exactly. The target is treated as data, never
    differentiated.
    """
    prediction = _as_tensor(prediction)
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=np.float64)
    if prediction.data.shape != t.shape:
        raise ShapeMismatchError(
            f"bce: prediction {prediction.data.shape} vs target {t.shape}"
        )
    p = np.clip(prediction.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
    out = np.asarray(-(t * np.log(p) + (1.0 - t) * np.log1p(-p)).mean())
    clamped = (prediction.data < BCE_CLAMP) | (prediction.data > 1.0 - BCE_CLAMP)
    scale = 1.0 / p.size

    def back(g):
        gp = g * scale * (p - t) / (p * (1.0 - p))
        gp[clamped] = 0.0
        return gp

    return Tensor(out, _parents=(prediction,), _backward=(back,))


def kl_standard_normal(mu, log_var) -> Tensor:
    """KL divergence of diagonal Gaussians from the unit Gaussian.

    Inputs are [batch, dim]; returns the batch mean of
    0.5 * sum_d(mu^2 + var - 1 - log var).
    """
    mu, log_var = _as_tensor(mu), _as_tensor(log_var)
    if mu.data.shape != log_var.data.shape:
        raise ShapeMismatchError(
            f"kl: mu {mu.data.shape} vs log_var {log_var.data.shape}"
        )
    var = np.exp(log_var.data)
    batch = mu.data.shape[0] if mu.data.ndim > 0 else 1
    out = np.asarray(0.5 * (mu.data**2 + var - 1.0 - log_var.data).sum() / batch)
    back = (lambda g: g * mu.data / batch, lambda g: g * 0.5 * (var - 1.0) / batch)
    return Tensor(out, _parents=(mu, log_var), _backward=back)


def lp_penalty(x, norm_order: int) -> Tensor:
    """L1 or L2 norm of a vector; the L1 subgradient at 0 is taken as 0."""
    x = _as_tensor(x)
    if norm_order == 1:
        out = np.asarray(np.abs(x.data).sum())

        def back(g):
            return g * np.sign(x.data)

    elif norm_order == 2:
        value = math.sqrt(float((x.data**2).sum()))
        out = np.asarray(value)

        def back(g):
            if value == 0.0:
                return np.zeros_like(x.data)
            return g * x.data / value

    else:
        raise ValueError(f"norm order must be 1 or 2, got {norm_order!r}")
    return Tensor(out, _parents=(x,), _backward=(back,))


def _topological_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(loss: Tensor, wrt: Sequence[Tensor]) -> None:
    """Set ``t.grad`` to d loss / d t for each tensor ``t`` in ``wrt``.

    Each call overwrites ``grad``; it is ``None`` where the loss does not
    depend on ``t``. Only nodes on a path from the loss to ``wrt`` are
    differentiated, and no other tensor is touched.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = _topological_order(loss)
    on_path = {id(t) for t in wrt}
    for node in order:
        if any(id(parent) in on_path for parent in node._parents):
            on_path.add(id(node))
    incoming: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = incoming.get(id(node))
        if g is None or node._backward is None:
            continue
        for parent, vjp in zip(node._parents, node._backward):
            key = id(parent)
            if key not in on_path:
                continue
            pg = vjp(g)
            incoming[key] = incoming[key] + pg if key in incoming else pg
    for t in wrt:
        t.grad = incoming.get(id(t))


def adam_step(params: Sequence[Tensor], grads: Sequence[Array], optimizer: Adam) -> None:
    """One bias-corrected update of ``optimizer``'s moments, applied to the parameters in place."""
    if len(params) != len(grads) or len(params) != len(optimizer.first_moment):
        raise ValueError("parameter, gradient and moment lengths differ")
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} does not match parameter "
                f"{p.name or i} of shape {p.data.shape}"
            )
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for parameter {p.name or i}")
    optimizer.step_count += 1
    t = optimizer.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, optimizer.first_moment, optimizer.second_moment):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.asarray(g) ** 2
        p.data -= optimizer.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


class Adam:
    """Adam over a fixed parameter list: its moments, step count and learning rate.

    :meth:`step` consumes each parameter's ``grad`` through :func:`adam_step`
    and resets it to ``None``, so a trained network holds no stale copy of
    its gradient.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self) -> None:
        grads = []
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"parameter {p.name or i} has no gradient")
            grads.append(p.grad)
        adam_step(self.params, grads, self)
        for p in self.params:
            p.grad = None

