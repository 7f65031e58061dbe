"""The finite-difference gradient check the tests hold the engine to.

No package code calls it, so it lives beside the tests that do.
"""

from typing import Callable

import numpy as np

from latentpoison.autodiff import Tensor, backward


def grad_check(
    build: Callable[[np.random.Generator], tuple[Callable[[], Tensor], list[Tensor]]],
    seed: int,
    fd_step: float = 1e-5,
) -> float:
    """Compare analytic gradients to central finite differences.

    ``build(rng)`` must return ``(loss_fn, params)`` where ``loss_fn()``
    rebuilds a scalar loss from the current parameter values and is
    deterministic (any random draws frozen at build time). Returns the
    worst relative error over all parameter elements, measured against the
    finite-difference estimate with a 1e-6 denominator floor; elements
    where both gradients are below 1e-12 count as exact.
    """
    if not 1e-6 <= fd_step <= 1e-4:
        raise ValueError(f"fd_step must lie in [1e-6, 1e-4], got {fd_step}")
    rng = np.random.default_rng(seed)
    loss_fn, params = build(rng)
    backward(loss_fn(), params)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + fd_step
            upper = float(loss_fn().data)
            flat[i] = original - fd_step
            lower = float(loss_fn().data)
            flat[i] = original
            fd = (upper - lower) / (2.0 * fd_step)
            a = float(gflat[i])
            if abs(a) < 1e-12 and abs(fd) < 1e-12:
                continue
            worst = max(worst, abs(a - fd) / max(abs(fd), 1e-6))
    return worst
