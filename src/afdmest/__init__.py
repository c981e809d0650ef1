"""Chirp-multicarrier (AFDM) fractional delay/Doppler estimation toolkit.

Layers, bottom to top:

* ``core``      grid parameters, forward/inverse transform, chirp prefix
* ``channel``   LOS channel models: FIR production path and continuous-time oracle
* ``effective`` exact transform-domain channel and its closed-form envelope
* ``estimator`` pilot frames, PSPR Doppler loop, early-late-gate delay
* ``baselines`` integer-only decode and 2-D grid-search comparator
* ``harness``   Monte Carlo sweeps, validation mode, CSV/JSON reports
* ``cli``       `afdmest` command line entry point

The package exports what each of the first six layers lists in its
``__all__``, and ``__version__``.
"""

from . import baselines, channel, core, effective, estimator, harness
from .core import *  # noqa: F401,F403
from .channel import *  # noqa: F401,F403
from .effective import *  # noqa: F401,F403
from .estimator import *  # noqa: F401,F403
from .baselines import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *(
        name
        for layer in (core, channel, effective, estimator, baselines, harness)
        for name in layer.__all__
    ),
    "__version__",
]
