"""Verification toolkit for contextuality, nonlocality and joint-measurability bounds.

The library computes classical (noncontextual / Bell-local / preparation-
noncontextual) bounds by exhaustive enumeration and linear feasibility,
evaluates the matching quantum constructions by the Born rule, checks
sum-of-squares optimality certificates, derives joint-measurability
thresholds for noisy spin observables, analyses frustration of signed
correlation networks, and runs seeded Monte Carlo game simulations.

The submodules are imported on first access (``seer_lab.quantum``, or
``from seer_lab import quantum``), so ``import seer_lab`` loads only the
tolerances and no numpy.
"""

__version__ = "0.1.0"

import importlib

from .tolerances import NUM_TOL, STRUCT_TOL

__all__ = [
    "__version__",
    "classical",
    "games",
    "numkit",
    "povm",
    "quantum",
    "scenario",
    "signet",
    "NUM_TOL",
    "STRUCT_TOL",
]


def __getattr__(name):
    # PEP 562: only called for names the module does not hold yet.
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
