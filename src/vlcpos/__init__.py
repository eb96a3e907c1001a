"""Lambertian visible-light channel model and CSA-RSS single-LED indoor positioning.

The package namespace re-exports the public names (`__all__`) of every module.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import channel, errors, estimator, geometry, reporting, scenario
from .channel import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimator import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .reporting import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (channel, errors, estimator, geometry, reporting, scenario)
    for name in module.__all__
]
