"""Latent-space tampering of a small VAE: training, attacks, stealth metrics.

Importing the package loads its modules. Each name lives in its module and is
imported from there, e.g. ``from latentpoison.attack import AttackConfig``.
"""

from . import attack, autodiff, checkpoint, data, evaluation, experiment, models, reporting, seeds
from .models import encode  # not used here: perfbench's tracer test asserts latentpoison.encode

__version__ = "0.1.0"
