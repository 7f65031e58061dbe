"""The one reduction the tests use to make a scalar loss.

The engine has no sum or mean op, because no package code reduces a tensor
outside its loss nodes; this node, in the engine's per-parent ``_backward``
form, stands in for both.
"""

import numpy as np

from latentpoison.autodiff import Tensor


def total(x: Tensor, mean: bool = False) -> Tensor:
    """The sum of ``x``'s entries, or with ``mean`` their mean, as one graph node."""
    scale = 1.0 / x.data.size if mean else 1.0
    out = np.asarray(x.data.mean() if mean else x.data.sum())
    return Tensor(out, _parents=(x,),
                  _backward=(lambda g: np.broadcast_to(g * scale, x.data.shape).copy(),))
